package main

import (
	"bufio"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"detective/internal/relation"
)

// TestReadHeader: readHeader splits off exactly the first line, and
// relation.ReadCSVHeader, which streamClean parses that line with,
// drops a UTF-8 BOM from the attributes.
func TestReadHeader(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		header  string
		rest    string
		noAttrs bool
		wantErr error
	}{
		{name: "plain LF", in: "Name,City\nrow1\n", header: "Name,City", rest: "row1\n"},
		{name: "CRLF", in: "Name,City\r\nrow1\r\n", header: "Name,City", rest: "row1\r\n"},
		{name: "bare CR", in: "Name,City\rrow1\r", header: "Name,City", rest: "row1\r"},
		{name: "UTF-8 BOM", in: "\xEF\xBB\xBFName,City\nrow1\n", header: "\xEF\xBB\xBFName,City", rest: "row1\n"},
		{name: "BOM and CRLF", in: "\xEF\xBB\xBFName,City\r\nrow1\n", header: "\xEF\xBB\xBFName,City", rest: "row1\n"},
		{name: "no trailing newline", in: "Name,City", header: "Name,City", rest: ""},
		{name: "empty input", in: "", wantErr: io.ErrUnexpectedEOF},
		{name: "BOM only", in: "\xEF\xBB\xBF", header: "\xEF\xBB\xBF", rest: "", noAttrs: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(strings.NewReader(tc.in))
			got, err := readHeader(br)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("readHeader: %v", err)
			}
			if got != tc.header {
				t.Errorf("header = %q, want %q", got, tc.header)
			}
			rest, _ := io.ReadAll(br)
			if string(rest) != tc.rest {
				t.Errorf("rest = %q, want %q (header must consume exactly one line)", rest, tc.rest)
			}
			_, attrs, err := relation.ReadCSVHeader(strings.NewReader(got))
			if tc.noAttrs {
				if err != io.EOF {
					t.Errorf("attributes of %q: err = %v, want io.EOF", got, err)
				}
				return
			}
			if err != nil || !slices.Equal(attrs, []string{"Name", "City"}) {
				t.Errorf("attributes of %q = %q, %v; want [Name City]", got, attrs, err)
			}
		})
	}
}
