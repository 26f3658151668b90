package kb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadDelta covers the body POST /reload?delta=1 accepts: ReadDelta
// followed by ApplyDelta against testdata/delta/old.dkbs returns an
// error or a graph, never a panic. An accepted delta that Write can
// serialize must read back and re-serialize to the same bytes.
//
// An accepted apply must also agree with applying the same delta to
// the same content parsed as text (testdata/delta/old.nt), and its
// snapshot encoding must load back — through LoadSnapshot's span
// checks — to the same text.
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
	src, err := os.ReadFile("../../testdata/delta/old.nt")
	if err != nil {
		f.Fatal(err)
	}
	textBase, err := Parse(bytes.NewReader(src))
	if err != nil {
		f.Fatal(err)
	}
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
			if applied, err := base.ApplyDelta(d); err == nil {
				checkAppliedDelta(t, d, applied, textBase)
			}
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

// checkAppliedDelta requires applied — d applied to a snapshot base —
// to read like d applied to textBase, a text-parsed graph of the same
// content, and to survive a snapshot round trip.
func checkAppliedDelta(t *testing.T, d *Delta, applied, textBase *Graph) {
	t.Helper()
	fromText, err := textBase.ApplyDelta(d)
	if err != nil {
		t.Fatalf("delta applies to the snapshot base but not to the text base: %v", err)
	}
	want, wantErr := encodeOrErr(applied)
	if got, err := encodeOrErr(fromText); got != want || (err == nil) != (wantErr == nil) {
		t.Fatalf("snapshot and text bases disagree after apply (%d vs %d bytes; errors %v, %v)", len(want), len(got), wantErr, err)
	}
	var snap bytes.Buffer
	if err := applied.WriteSnapshotV2(&snap); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	loaded, err := LoadSnapshot(&snap)
	if err != nil {
		t.Fatalf("applied graph's snapshot does not load: %v", err)
	}
	if got, err := encodeOrErr(loaded); got != want || (err == nil) != (wantErr == nil) {
		t.Fatalf("snapshot round trip changed the applied content (%d vs %d bytes; errors %v, %v)", len(want), len(got), wantErr, err)
	}
}

func encodeOrErr(g *Graph) (string, error) {
	var buf bytes.Buffer
	err := g.Encode(&buf)
	return buf.String(), err
}

// FuzzParseKB covers the KB text format: text Parse accepts must
// encode, and Parse→Encode→Parse→Encode must reach a fixed point. The
// first round canonicalizes (order, duplicates, comments) and may still
// change how a node is written, since a node's kind is set where Parse
// first meets it — a literal that also appears inside <…> can become
// an instance once Encode has sorted the lines. From the second round
// on, the text must not change.
func FuzzParseKB(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.nt")
	if err != nil {
		f.Fatal(err)
	}
	more, err := filepath.Glob("../../testdata/delta/*.nt")
	if err != nil {
		f.Fatal(err)
	}
	// A whole file (~2,000 lines) makes every run of the target about
	// a hundred times slower, so each seeds the corpus in 16-line pieces.
	for _, p := range append(paths, more...) {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.SplitAfter(string(src), "\n")
		for len(lines) > 0 {
			n := min(16, len(lines))
			f.Add(strings.Join(lines[:n], ""))
			lines = lines[n:]
		}
	}
	f.Add("<a> <quote> \"say \"hi\"\" .\n<a> <home> \"C:\\temp\" .\n<a> <type> <b> .\n")
	f.Fuzz(func(t *testing.T, text string) {
		g, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		round := func(g *Graph) (string, *Graph) {
			var buf bytes.Buffer
			if err := g.Encode(&buf); err != nil {
				t.Fatalf("Encode of parsed text: %v", err)
			}
			txt := buf.String()
			g2, err := Parse(strings.NewReader(txt))
			if err != nil {
				t.Fatalf("Parse of encoded text: %v\n%s", err, txt)
			}
			return txt, g2
		}
		_, g = round(g)
		second, g := round(g)
		if third, _ := round(g); third != second {
			t.Fatalf("Encode is not at a fixed point after two rounds:\n%s\nthen\n%s", second, third)
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
