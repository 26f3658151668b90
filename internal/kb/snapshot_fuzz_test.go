package kb_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"detective/internal/kb"
	"detective/internal/kb/verify"
)

// FuzzLoadSnapshot covers the DKBS v2 decoders: LoadSnapshot returns
// an error or a graph that Freeze, verify.Check and a
// WriteSnapshotV2 → LoadSnapshot round trip all accept without a
// panic, and the round trip keeps the Encode text. LoadSnapshotFile on
// the same bytes (the mmap path where the platform has one) must not
// panic either; it trusts its arenas (see the snapshot trust model), so
// its graph is not read further.
//
// Each input is also tried with every section's CRC recomputed, so
// mutated payloads reach the structural checks instead of stopping at
// the checksum.
func FuzzLoadSnapshot(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/delta/*.dkbs")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	var small bytes.Buffer
	if err := kb.V2TestGraph().WriteSnapshotV2(&small); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())

	// One file per fuzz process, rewritten in place with a fixed mtime:
	// the mmap path maps each file version once per process and never
	// unmaps, so a new file per input would grow the mappings without
	// bound. A same-sized rewrite reuses its mapping, which shows the
	// new bytes.
	path := filepath.Join(f.TempDir(), "in.dkbs")
	mtime := time.Unix(1<<30, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealSnapshot(data)} {
			checkDecodedSnapshot(t, in)
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, mtime, mtime); err != nil {
				t.Fatal(err)
			}
			kb.LoadSnapshotFile(path)
		}
	})
}

// checkDecodedSnapshot loads in through the decode path and, if it is
// accepted, reads the graph the way a server promoting it would.
func checkDecodedSnapshot(t *testing.T, in []byte) {
	t.Helper()
	g, err := kb.LoadSnapshot(bytes.NewReader(in))
	if err != nil {
		return
	}
	g.Freeze()
	verify.Check(g, verify.Options{})
	want, wantErr := snapshotText(g)
	var snap bytes.Buffer
	if err := g.WriteSnapshotV2(&snap); err != nil {
		t.Fatalf("WriteSnapshotV2 of a loaded snapshot: %v", err)
	}
	again, err := kb.LoadSnapshot(&snap)
	if err != nil {
		t.Fatalf("re-written snapshot does not load: %v", err)
	}
	if got, err := snapshotText(again); got != want || (err == nil) != (wantErr == nil) {
		t.Fatalf("snapshot round trip changed the content (%d vs %d bytes; errors %v, %v)", len(want), len(got), wantErr, err)
	}
}

func snapshotText(g *kb.Graph) (string, error) {
	var buf bytes.Buffer
	err := g.Encode(&buf)
	return buf.String(), err
}

// resealSnapshot returns a copy of data with the CRC-32C of every
// in-bounds section in the v2 directory recomputed over its payload.
// Directory entries are 24 bytes from offset 8: id, flags, two
// reserved bytes, CRC, offset, length.
func resealSnapshot(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < 8 {
		return out
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	n := int(binary.LittleEndian.Uint16(out[6:8]))
	for i := 0; i < n && 8+24*(i+1) <= len(out); i++ {
		e := out[8+24*i:]
		off, size := binary.LittleEndian.Uint64(e[8:16]), binary.LittleEndian.Uint64(e[16:24])
		if off > uint64(len(out)) || size > uint64(len(out))-off {
			continue
		}
		binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(out[off:off+size], table))
	}
	return out
}
