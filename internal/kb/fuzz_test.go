package kb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// FuzzReadDelta covers the body POST /reload?delta=1 accepts: ReadDelta
// followed by ApplyDelta against testdata/delta/old.dkbs returns an
// error or a graph, never a panic. An accepted delta that Write can
// serialize must read back and re-serialize to the same bytes.
//
// Each input is also tried with its section checksums recomputed, so
// mutated payloads reach the decoder's and ApplyDelta's own checks
// instead of stopping at the CRC.
func FuzzReadDelta(f *testing.F) {
	base, err := LoadSnapshotFile("../../testdata/delta/old.dkbs")
	if err != nil {
		f.Fatal(err)
	}
	base.Freeze()
	seed, err := os.ReadFile("../../testdata/delta/old_to_new.dkbsd")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealDelta(data)} {
			d, err := ReadDelta(bytes.NewReader(in))
			if err != nil {
				continue
			}
			_, _ = base.ApplyDelta(d)
			var w1 bytes.Buffer
			if err := d.Write(&w1); err != nil {
				continue
			}
			d2, err := ReadDelta(bytes.NewReader(w1.Bytes()))
			if err != nil {
				t.Fatalf("written delta does not read back: %v", err)
			}
			var w2 bytes.Buffer
			if err := d2.Write(&w2); err != nil {
				t.Fatalf("re-writing a read-back delta: %v", err)
			}
			if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
				t.Fatalf("write/read/write is not byte-stable (%d vs %d bytes)", w1.Len(), w2.Len())
			}
		}
	})
}

// resealDelta returns a copy of data with every well-framed section's
// CRC-32C recomputed over its payload.
func resealDelta(data []byte) []byte {
	out := append([]byte(nil), data...)
	off := len(deltaMagic) + 4
	for off+sectionHeaderLen <= len(out) {
		n := binary.LittleEndian.Uint64(out[off+5 : off+13])
		if n > uint64(len(out)-off-sectionHeaderLen) {
			break
		}
		payload := out[off+sectionHeaderLen : off+sectionHeaderLen+int(n)]
		binary.LittleEndian.PutUint32(out[off+1:off+5], crc32.Checksum(payload, crcTable))
		off += sectionHeaderLen + int(n)
	}
	return out
}
