package kb

// Byte-level helpers shared by the binary KB formats: the DKBS
// snapshot magic (snapshot2.go), the CRC-32C table that DKBS and DKBD
// deltas (delta.go) checksum their sections with, the DKBD section
// framing
//
//	u8 section ID | u32 CRC-32C(payload) | u64 payload length | payload
//
// and the unsigned varint reader both formats decode counts and IDs
// with.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const snapshotMagic = "DKBS"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sectionHeaderLen is id(1) + crc(4) + length(8).
const sectionHeaderLen = 13

func writeSection(bw *bufio.Writer, id byte, payload []byte) error {
	var h [sectionHeaderLen]byte
	h[0] = id
	binary.LittleEndian.PutUint32(h[1:5], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint64(h[5:13], uint64(len(payload)))
	if _, err := bw.Write(h[:]); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// varintReader decodes unsigned varints from a byte slice.
type varintReader struct {
	b   []byte
	off int
}

// uvarint keeps the dominant one- and two-byte cases (IDs and counts
// below 2^14) on an inlinable fast path.
func (r *varintReader) uvarint() (uint64, error) {
	if r.off+1 < len(r.b) {
		c := r.b[r.off]
		if c < 0x80 {
			r.off++
			return uint64(c), nil
		}
		if c2 := r.b[r.off+1]; c2 < 0x80 {
			r.off += 2
			return uint64(c&0x7f) | uint64(c2)<<7, nil
		}
	}
	return r.uvarintSlow()
}

func (r *varintReader) uvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or malformed varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}
