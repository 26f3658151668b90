package relation

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
)

// utf8BOM is the byte order mark spreadsheet exports write in front
// of a CSV document.
const utf8BOM = "\ufeff"

// ReadCSVHeader reads the header record of the CSV document r and
// returns it with a reader positioned at the first data record
// (FieldsPerRecord is -1). A UTF-8 byte order mark in front of the
// document is dropped, so it never becomes part of the first
// attribute name, quoted or not.
func ReadCSVHeader(r io.Reader) (*csv.Reader, []string, error) {
	br := bufio.NewReader(r)
	if b, err := br.Peek(len(utf8BOM)); err == nil && string(b) == utf8BOM {
		_, _ = br.Discard(len(utf8BOM)) // cannot fail: Peek buffered these bytes
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	return cr, header, err
}

// ReadCSV loads a table from CSV. The first record is the header and
// becomes the schema's attribute list; name becomes the schema name.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr, header, err := ReadCSVHeader(r)
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	tb := NewTable(NewSchema(name, header...))
	for lineno := 2; ; lineno++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, header has %d", lineno, len(rec), len(header))
		}
		tb.Append(rec...)
	}
	return tb, nil
}

// WriteCSV writes the table as CSV with a header row. Marks are not
// serialized; use WriteMarkedCSV to keep them.
func (tb *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(tb.Schema.Attrs); err != nil {
		return err
	}
	for _, t := range tb.Tuples {
		if err := cw.Write(t.Values); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkedCSV writes the table as CSV with a "+" suffix appended to
// every positively marked cell, matching the notation of the paper's
// worked examples. It is intended for human inspection of cleaning
// output.
func (tb *Table) WriteMarkedCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(tb.Schema.Attrs); err != nil {
		return err
	}
	row := make([]string, tb.Schema.Arity())
	for _, t := range tb.Tuples {
		for i, v := range t.Values {
			if t.Marked[i] {
				row[i] = v + "+"
			} else {
				row[i] = v
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
