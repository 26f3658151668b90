package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"strings"
	"testing"
)

// chunkReader returns the bytes of its input a few at a time, 1 to 7
// per Read, cycling through the sizes from a fuzzed start, so that
// records, quotes and CRLF pairs straddle the reader's fills.
type chunkReader struct {
	data []byte
	size int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.size = c.size%7 + 1
	n := copy(p[:min(len(p), c.size)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// sameErr reports whether two Read errors are the same: both nil,
// both io.EOF, or *csv.ParseError values with the same Err, StartLine,
// Line and Column.
func sameErr(got, want error) bool {
	var gp, wp *csv.ParseError
	if errors.As(got, &gp) && errors.As(want, &wp) {
		return *gp == *wp
	}
	return got == want
}

// FuzzCSVReader is the differential check of CSVReader against
// encoding/csv's Reader (FieldsPerRecord = -1): record by record, the
// same fields, the same error (a *csv.ParseError's Err, StartLine,
// Line and Column alike) and the same start line, up to the first
// error or EOF. The input is fed 1 to 7 bytes per Read, and pad bytes
// of 'x' are inserted at a fuzzed offset so that lines, quoted fields
// among them, run past the 4 KiB read buffer.
func FuzzCSVReader(f *testing.F) {
	f.Add([]byte("a,b,c\n1,2,3\n"), uint16(0), uint16(0), uint8(0))
	f.Add([]byte("a,\"b\nc\",d\r\n\r\n\n\"e\"\"f\",g\r"), uint16(5000), uint16(3), uint8(2))
	f.Add([]byte("\"abc\"x,d\n"), uint16(0), uint16(0), uint8(4))
	f.Add([]byte("ab\"c,d\n"), uint16(9000), uint16(1), uint8(6))
	f.Add([]byte("x,\"unterminated\nnext line"), uint16(4100), uint16(4), uint8(1))
	f.Add([]byte("\ufeffa, b ,\" c\"\n\r\n,\n"), uint16(8200), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, pad, at uint16, chunk uint8) {
		if n := int(pad) % 9000; n > 0 {
			i := int(at) % (len(data) + 1)
			data = append(data[:i:i], append(bytes.Repeat([]byte{'x'}, n), data[i:]...)...)
		}
		want := csv.NewReader(bytes.NewReader(data))
		want.FieldsPerRecord = -1
		got := newCSVReader(&chunkReader{data: data, size: int(chunk)})
		for rec := 1; ; rec++ {
			wf, werr := want.Read()
			gf, gerr := got.Read()
			if !sameErr(gerr, werr) {
				t.Fatalf("record %d: err = %#v, want %#v", rec, gerr, werr)
			}
			if len(gf) != len(wf) {
				t.Fatalf("record %d: %d fields %q, want %d %q", rec, len(gf), gf, len(wf), wf)
			}
			for i := range wf {
				if gf[i] != wf[i] {
					t.Fatalf("record %d field %d = %q, want %q", rec, i, gf[i], wf[i])
				}
			}
			if werr != nil {
				return
			}
			if line, _ := want.FieldPos(0); got.Line() != line {
				t.Fatalf("record %d: Line() = %d, want %d", rec, got.Line(), line)
			}
		}
	})
}

// FuzzAppendCSV is the differential check of AppendCSV against
// encoding/csv's Writer: a record of three cells, each marked or not
// by a bit of marks, must encode to the bytes csv.Writer.Write writes
// for it with every marked cell replaced by its value plus "+", and
// CSVReader must read those bytes back to the same fields (with
// "\r\n" inside a field read as "\n", as csv.Reader does).
func FuzzAppendCSV(f *testing.F) {
	f.Add("plain", "", "x", uint8(0))
	f.Add(" leading space", "\u00a0nbsp", "\u2003em", uint8(5))
	f.Add(`\.`, `\.`, "\u0085", uint8(2))
	f.Add("a\rb", "c\r\nd", "e\nf", uint8(7))
	f.Add("q\"uote", "c,omma", "\"", uint8(1))
	f.Add("", "\xe2\x80", "tab\tinside", uint8(6))
	f.Add("12345678,", "abcdefgh\"ij", "\x00\x01\x02\x03\x04\x05\x06\r", uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c string, marks uint8) {
		rec := []string{a, b, c}
		marked := []bool{marks&1 != 0, marks&2 != 0, marks&4 != 0}
		fields := make([]string, len(rec))
		for i, v := range rec {
			fields[i] = v
			if marked[i] {
				fields[i] += "+"
			}
		}
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		if err := cw.Write(fields); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		got := AppendCSV([]byte("prefix"), rec, marked)
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
			t.Fatalf("AppendCSV(%q, %v) = %q, want %q", rec, marked, got, "prefix"+want.String())
		}
		back, err := newCSVReader(bytes.NewReader(want.Bytes())).Read()
		if err != nil {
			t.Fatalf("reading %q back: %v", want.Bytes(), err)
		}
		if len(back) != len(fields) {
			t.Fatalf("read %q back as %q", want.Bytes(), back)
		}
		for i, v := range fields {
			if w := strings.ReplaceAll(v, "\r\n", "\n"); back[i] != w {
				t.Fatalf("field %d read back as %q, want %q", i, back[i], w)
			}
		}
	})
}

// TestWriteCSVMatchesEncodingCSV: WriteCSV and WriteMarkedCSV write
// what csv.Writer writes for the header and rows (marked cells with a
// "+" suffix), across more than one 16 KiB write to the sink.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	tb := NewTable(NewSchema("R", "A", " B", "C"))
	vals := []string{"x", " lead", "a,b", "q\"", "", `\.`, "l\nf", "\u00a0"}
	for i := 0; i < 3000; i++ {
		tu := tb.Append(vals[i%len(vals)], vals[(i/3)%len(vals)], strings.Repeat("z", i%11))
		tu.Marked[i%3] = true
	}
	for _, marks := range []bool{false, true} {
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		_ = cw.Write(tb.Schema.Attrs)
		for _, tu := range tb.Tuples {
			row := append([]string(nil), tu.Values...)
			for i := range row {
				if marks && tu.Marked[i] {
					row[i] += "+"
				}
			}
			_ = cw.Write(row)
		}
		cw.Flush()
		var got bytes.Buffer
		write := tb.WriteCSV
		if marks {
			write = tb.WriteMarkedCSV
		}
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("marks=%v: output differs from csv.Writer's (%d vs %d bytes)", marks, got.Len(), want.Len())
		}
	}
}
