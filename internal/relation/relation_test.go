package relation

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func nobelSchema() *Schema {
	return NewSchema("Nobel", "Name", "DOB", "Country", "Prize", "Institution", "City")
}

func TestSchemaCols(t *testing.T) {
	s := nobelSchema()
	if s.Arity() != 6 {
		t.Fatalf("Arity = %d", s.Arity())
	}
	if s.Col("Name") != 0 || s.Col("City") != 5 {
		t.Fatal("Col positions wrong")
	}
	if s.Col("Nope") != -1 {
		t.Fatal("Col(missing) != -1")
	}
	if !s.Has("Prize") || s.Has("X") {
		t.Fatal("Has wrong")
	}
}

func TestSchemaPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate attr", func() { NewSchema("R", "A", "A") })
	mustPanic("empty attr", func() { NewSchema("R", "") })
	mustPanic("MustCol missing", func() { nobelSchema().MustCol("X") })
}

func TestTupleMarks(t *testing.T) {
	tu := NewTuple("a", "b", "c")
	if tu.IsMarked() || tu.NumMarked() != 0 {
		t.Fatal("fresh tuple must be unmarked")
	}
	tu.Marked[1] = true
	if !tu.IsMarked() || tu.NumMarked() != 1 {
		t.Fatal("mark accounting wrong")
	}
	if got := tu.String(); got != "(a, b+, c)" {
		t.Fatalf("String = %q", got)
	}
}

func TestTupleCloneIsDeep(t *testing.T) {
	tu := NewTuple("a", "b")
	cl := tu.Clone()
	cl.Values[0] = "x"
	cl.Marked[1] = true
	if tu.Values[0] != "a" || tu.Marked[1] {
		t.Fatal("Clone shares storage")
	}
}

func TestTupleEquality(t *testing.T) {
	a := NewTuple("x", "y")
	b := NewTuple("x", "y")
	if !a.Equal(b) || !a.EqualMarked(b) {
		t.Fatal("identical tuples must be equal")
	}
	b.Marked[0] = true
	if !a.Equal(b) {
		t.Fatal("Equal must ignore marks")
	}
	if a.EqualMarked(b) {
		t.Fatal("EqualMarked must see marks")
	}
	c := NewTuple("x", "z")
	if a.Equal(c) {
		t.Fatal("different values must not be equal")
	}
}

func TestTableAppendAndCells(t *testing.T) {
	tb := NewTable(NewSchema("R", "A", "B"))
	tb.Append("1", "2")
	tb.Append("3", "4")
	if tb.Len() != 2 || tb.NumCells() != 4 {
		t.Fatal("size accounting wrong")
	}
	if tb.Cell(1, "B") != "4" {
		t.Fatal("Cell wrong")
	}
	tb.SetCell(0, "A", "9")
	if tb.Cell(0, "A") != "9" {
		t.Fatal("SetCell wrong")
	}
}

func TestTableAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(NewSchema("R", "A")).Append("1", "2")
}

func TestTableCloneAndDiff(t *testing.T) {
	tb := NewTable(NewSchema("R", "A", "B"))
	tb.Append("1", "2")
	tb.Append("3", "4")
	cl := tb.Clone()
	cl.SetCell(0, "B", "x")
	cl.Tuples[1].Marked[0] = true
	if tb.Cell(0, "B") != "2" || tb.Tuples[1].Marked[0] {
		t.Fatal("Clone shares storage")
	}
	d := tb.Diff(cl)
	if len(d) != 1 || d[0] != [2]int{0, 1} {
		t.Fatalf("Diff = %v", d)
	}
	if tb.NumMarked() != 0 || cl.NumMarked() != 1 {
		t.Fatal("NumMarked wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable(nobelSchema())
	tb.Append("Avram Hershko", "1937-12-31", "Israel", "Nobel Prize in Chemistry", "Israel Institute of Technology", "Haifa")
	tb.Append("Marie, Curie", "1867-11-07", "France", "Nobel \"Prize\"", "Pasteur Institute", "Paris")

	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV("Nobel", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != tb.Len() {
		t.Fatalf("rows: %d vs %d", got.Len(), tb.Len())
	}
	for i := range tb.Tuples {
		if !got.Tuples[i].Equal(tb.Tuples[i]) {
			t.Errorf("row %d: %v vs %v", i, got.Tuples[i], tb.Tuples[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("R", strings.NewReader("")); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := ReadCSV("R", strings.NewReader("A,B\n1\n")); err == nil {
		t.Error("short row: want error")
	}
}

// TestReadCSVStripsBOM: a UTF-8 byte order mark in front of the
// header is not part of the first attribute, quoted or not.
func TestReadCSVStripsBOM(t *testing.T) {
	for _, in := range []string{"\ufeffName,City\nx,y\n", "\ufeff\"Name\",City\nx,y\n"} {
		tb, err := ReadCSV("R", strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadCSV(%q): %v", in, err)
		}
		if got := tb.Schema.Attrs; len(got) != 2 || got[0] != "Name" || got[1] != "City" {
			t.Errorf("ReadCSV(%q) attributes = %q, want [Name City]", in, got)
		}
		if tb.Len() != 1 || tb.Tuples[0].Values[0] != "x" {
			t.Errorf("ReadCSV(%q) rows = %v", in, tb.Tuples)
		}
	}
}

func TestWriteMarkedCSV(t *testing.T) {
	tb := NewTable(NewSchema("R", "A", "B"))
	tu := tb.Append("x", "y")
	tu.Marked[1] = true
	var buf bytes.Buffer
	if err := tb.WriteMarkedCSV(&buf); err != nil {
		t.Fatalf("WriteMarkedCSV: %v", err)
	}
	want := "A,B\nx,y+\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(a, b, c string) bool {
		tu := NewTuple(a, b, c)
		return tu.Clone().EqualMarked(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
