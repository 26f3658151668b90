package relation

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// utf8BOM is the byte order mark spreadsheet exports write in front
// of a CSV document.
const utf8BOM = "\ufeff"

// writeBufSize is how much output WriteCSV and WriteMarkedCSV gather
// before each write to their sink.
const writeBufSize = 16 << 10

// CSVReader reads CSV records exactly as encoding/csv's Reader does
// with FieldsPerRecord = -1: RFC 4180 fields separated by ",", \r\n
// read as \n, blank lines skipped, and the same *csv.ParseError (Err,
// StartLine, Line and Column) for the same malformed input. Unlike
// csv.Reader it builds no strings: the fields Read returns view the
// reader's buffers and are valid only until the next Read. A line
// without a quote is split where it lies in the read buffer; a record
// with a quote is decoded into one reused record buffer. A caller
// that keeps a field copies it first (CloneRecord).
type CSVReader struct {
	br      *bufio.Reader
	raw     []byte   // a line longer than br's buffer, assembled
	rec     []byte   // a quoted record's decoded fields, back to back
	ends    []int    // where each field of rec ends
	fields  []string // the last record, viewing br's buffer, raw or rec
	numLine int      // lines read so far
	line    int      // the line the last record starts on
}

func newCSVReader(r io.Reader) *CSVReader {
	return &CSVReader{br: bufio.NewReader(r)}
}

// ReadCSVHeader reads the header record of the CSV document r and
// returns it, as strings of its own, with a reader positioned at the
// first data record. A UTF-8 byte order mark in front of the document
// is dropped, so it never becomes part of the first attribute name,
// quoted or not.
func ReadCSVHeader(r io.Reader) (*CSVReader, []string, error) {
	cr := newCSVReader(r)
	if b, err := cr.br.Peek(len(utf8BOM)); err == nil && string(b) == utf8BOM {
		_, _ = cr.br.Discard(len(utf8BOM)) // cannot fail: Peek buffered these bytes
	}
	header, err := cr.Read()
	return cr, CloneRecord(nil, header), err
}

// Line returns the line on which the record last returned by Read
// starts; blank lines and the lines of multi-line quoted fields count.
func (r *CSVReader) Line() int { return r.line }

// Read returns the next record, or io.EOF after the last one. Its
// fields view the reader's buffers until the next call. On a parse or
// read error it returns the fields read before the error with it, as
// csv.Reader does.
func (r *CSVReader) Read() ([]string, error) {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = r.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue // skip empty lines
		}
		break
	}
	if errRead == io.EOF {
		return nil, errRead
	}
	r.line = r.numLine
	if !r.split(line[:len(line)-lengthNL(line)]) {
		return r.decode(line, errRead)
	}
	return r.fields, errRead
}

// split sets fields to views of the comma-separated fields of line,
// which has no newline, eight bytes at a time. It reports false if
// line holds a quote, which only decode can parse.
func (r *CSVReader) split(line []byte) bool {
	r.fields = r.fields[:0]
	start, i := 0, 0
	for ; i+8 <= len(line); i += 8 {
		w := binary.LittleEndian.Uint64(line[i:])
		if zeroBytes(w^wQuote) != 0 {
			return false
		}
		for m := zeroBytes(w ^ wComma); m != 0; m &= m - 1 {
			j := i + bits.TrailingZeros64(m)>>3
			r.fields = append(r.fields, view(line[start:j]))
			start = j + 1
		}
	}
	for ; i < len(line); i++ {
		switch line[i] {
		case '"':
			return false
		case ',':
			r.fields = append(r.fields, view(line[start:i]))
			start = i + 1
		}
	}
	r.fields = append(r.fields, view(line[start:]))
	return true
}

// readLine reads the next line, with its "\n" if it has one, as
// csv.Reader's readLine does: a line longer than the read buffer is
// assembled in raw, "\r\n" ends a line as "\n", and a "\r" just before
// EOF is dropped. If some bytes were read the error is never io.EOF.
// The line is valid until the next call.
func (r *CSVReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.raw = append(r.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.raw = append(r.raw, line...)
		}
		line = r.raw
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	r.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// decode parses a record whose first line holds a quote, field by
// field into rec, reading further lines while a quoted field spans
// them. It is csv.Reader's readRecord for Comma ',' with no comment
// character, LazyQuotes and TrimLeadingSpace off.
func (r *CSVReader) decode(line []byte, errRead error) ([]string, error) {
	var err error
	r.fields = r.fields[:0]
	r.rec = r.rec[:0]
	r.ends = r.ends[:0]
	recLine := r.line
	lineNo, col := recLine, 1
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			r.rec = append(r.rec, field...)
			r.ends = append(r.ends, len(r.rec))
			if i >= 0 {
				line = line[i+1:]
				col += i + 1
				continue parseField
			}
			break parseField
		}
		// Quoted field.
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				r.rec = append(r.rec, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					// `""`: an escaped quote.
					r.rec = append(r.rec, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					// `",`: the field ends.
					line = line[1:]
					col++
					r.ends = append(r.ends, len(r.rec))
					continue parseField
				case lengthNL(line) == len(line):
					// `"\n` or `"` at EOF: the record ends.
					r.ends = append(r.ends, len(r.rec))
					break parseField
				default:
					// `"*`: a quote that is neither escaped nor closing.
					err = &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0:
				// The field goes on past this line.
				r.rec = append(r.rec, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = r.readLine()
				if len(line) > 0 {
					lineNo++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// The input ends inside the quoted field.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: lineNo, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				r.ends = append(r.ends, len(r.rec))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	s := view(r.rec)
	start := 0
	for _, end := range r.ends {
		r.fields = append(r.fields, s[start:end])
		start = end
	}
	return r.fields, err
}

// view is b as a string without a copy; b must not change while the
// string is in use.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// CloneRecord sets dst, grown to rec's length, to a copy of rec whose
// cells share one new string, and returns it: rec may view a buffer
// that is about to be reused, the copy does not.
func CloneRecord(dst, rec []string) []string {
	n := 0
	for _, v := range rec {
		n += len(v)
	}
	var b strings.Builder
	b.Grow(n)
	for _, v := range rec {
		b.WriteString(v)
	}
	s := b.String()
	if cap(dst) < len(rec) {
		dst = make([]string, len(rec))
	}
	dst = dst[:len(rec)]
	for i, v := range rec {
		dst[i], s = s[:len(v)], s[len(v):]
	}
	return dst
}

// ReadCSV loads a table from CSV. The first record is the header and
// becomes the schema's attribute list; name becomes the schema name.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr, header, err := ReadCSVHeader(r)
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	tb := NewTable(NewSchema(name, header...))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, header has %d", cr.Line(), len(rec), len(header))
		}
		tb.Tuples = append(tb.Tuples, &Tuple{Values: CloneRecord(nil, rec), Marked: make([]bool, len(rec))})
	}
	return tb, nil
}

// AppendCSV appends rec to dst as one CSV record ending in "\n", byte
// for byte what csv.Writer writes for it. A cell whose marked entry is
// set (marked may be nil) is written as its value with a "+" suffix,
// the paper's positive mark, without building that string.
func AppendCSV(dst []byte, rec []string, marked []bool) []byte {
	for i, v := range rec {
		if i > 0 {
			dst = append(dst, ',')
		}
		mark := marked != nil && marked[i]
		if !needsQuotes(v, mark) {
			dst = append(dst, v...)
			if mark {
				dst = append(dst, '+')
			}
			continue
		}
		dst = append(dst, '"')
		for {
			j := strings.IndexByte(v, '"')
			if j < 0 {
				break
			}
			dst = append(append(dst, v[:j+1]...), '"')
			v = v[j+1:]
		}
		dst = append(dst, v...)
		if mark {
			dst = append(dst, '+')
		}
		dst = append(dst, '"')
	}
	return append(dst, '\n')
}

// needsQuotes is csv.Writer's fieldNeedsQuotes for the field v, or
// v+"+" when mark is set: a field is quoted if it is `\.`, holds a
// comma, quote, CR or LF, or begins with a Unicode space. The mark
// changes none of this for a non-empty v, since "+" is neither special
// nor able to complete a rune, and it makes an empty v the plain "+".
func needsQuotes(v string, mark bool) bool {
	if v == "" {
		return false
	}
	if v == `\.` && !mark {
		return true
	}
	if hasSpecial(v) {
		return true
	}
	if c := v[0]; c < utf8.RuneSelf {
		return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
	}
	r, _ := utf8.DecodeRuneInString(v)
	return unicode.IsSpace(r)
}

// Bytes that end or quote a CSV field, broadcast to every byte of a
// word.
const (
	lsb    = 0x0101010101010101
	msb    = 0x8080808080808080
	wComma = ',' * lsb
	wQuote = '"' * lsb
	wCR    = '\r' * lsb
	wLF    = '\n' * lsb
)

// zeroBytes sets the high bit of every zero byte of w, and no other
// bit: w^wComma has a zero byte where w has a comma.
func zeroBytes(w uint64) uint64 {
	const low7 = ^uint64(msb)
	return ^((w&low7 + low7) | w | low7)
}

// hasSpecial reports whether v holds a comma, a quote, a CR or an LF,
// testing eight bytes at a time: a word w has a zero byte iff
// (w-lsb) &^ w & msb != 0. A string shorter than a word is tested as
// one word padded with zero bytes, which are not special; a longer
// one's last word overlaps the word before it.
func hasSpecial(v string) bool {
	special := func(w uint64) bool {
		a, b, c, d := w^wComma, w^wQuote, w^wCR, w^wLF
		return ((a-lsb)&^a|(b-lsb)&^b|(c-lsb)&^c|(d-lsb)&^d)&msb != 0
	}
	if len(v) < 8 {
		var w uint64
		for i := 0; i < len(v); i++ {
			w |= uint64(v[i]) << (8 * i)
		}
		return special(w)
	}
	for i := 0; i+8 <= len(v); i += 8 {
		if special(word(v, i)) {
			return true
		}
	}
	return special(word(v, len(v)-8))
}

// word is v[i:i+8] as a little-endian word.
func word(v string, i int) uint64 {
	return uint64(v[i]) | uint64(v[i+1])<<8 | uint64(v[i+2])<<16 | uint64(v[i+3])<<24 |
		uint64(v[i+4])<<32 | uint64(v[i+5])<<40 | uint64(v[i+6])<<48 | uint64(v[i+7])<<56
}

// WriteCSV writes the table as CSV with a header row. Marks are not
// serialized; use WriteMarkedCSV to keep them.
func (tb *Table) WriteCSV(w io.Writer) error { return tb.writeCSV(w, false) }

// WriteMarkedCSV writes the table as CSV with a "+" suffix appended to
// every positively marked cell, matching the notation of the paper's
// worked examples. It is intended for human inspection of cleaning
// output.
func (tb *Table) WriteMarkedCSV(w io.Writer) error { return tb.writeCSV(w, true) }

func (tb *Table) writeCSV(w io.Writer, marks bool) error {
	buf := AppendCSV(make([]byte, 0, writeBufSize), tb.Schema.Attrs, nil)
	for _, t := range tb.Tuples {
		var mk []bool
		if marks {
			mk = t.Marked
		}
		buf = AppendCSV(buf, t.Values, mk)
		if len(buf) >= writeBufSize {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}
