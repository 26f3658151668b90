package kb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The text format accepted by Parse is a line-oriented subset of
// N-Triples with readable names instead of IRIs:
//
//	<Avram Hershko> <worksAt> <Israel Institute of Technology> .
//	<Avram Hershko> <bornOnDate> "1937-12-31" .
//	<Avram Hershko> <type> <Nobel laureates in Chemistry> .
//	<Nobel laureates in Chemistry> <subClassOf> <chemist> .
//	# comments and blank lines are ignored
//
// Objects in angle brackets are instances; objects in double quotes
// are literals. The predicates "type" and "subClassOf" are reserved
// for class membership and taxonomy.

// Reserved predicate names recognised by Parse and emitted by Encode.
const (
	PredType       = "type"
	PredSubClassOf = "subClassOf"
)

// ParseError describes a malformed line in the triple text format.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("kb: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parse reads triples in the text format from r into a new graph.
func Parse(r io.Reader) (*Graph, error) {
	g := New()
	if err := g.ParseInto(r); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseInto reads triples in the text format from r into g.
func (g *Graph) ParseInto(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, lit, err := splitTriple(line)
		if err != nil {
			return &ParseError{Line: lineno, Text: line, Msg: err.Error()}
		}
		switch p {
		case PredType:
			if lit {
				return &ParseError{Line: lineno, Text: line, Msg: "type object must be a class, not a literal"}
			}
			g.AddType(s, o)
		case PredSubClassOf:
			if lit {
				return &ParseError{Line: lineno, Text: line, Msg: "subClassOf object must be a class, not a literal"}
			}
			g.AddSubclass(s, o)
		default:
			if lit {
				g.AddPropertyTriple(s, p, o)
			} else {
				g.AddTriple(s, p, o)
			}
		}
	}
	return sc.Err()
}

// splitTriple parses one `<s> <p> <o|"o"> .` line. lit reports whether
// the object was quoted (a literal).
func splitTriple(line string) (s, p, o string, lit bool, err error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ".")
	line = strings.TrimSpace(line)
	rest := line

	s, rest, err = takeAngle(rest)
	if err != nil {
		return "", "", "", false, fmt.Errorf("subject: %v", err)
	}
	p, rest, err = takeAngle(rest)
	if err != nil {
		return "", "", "", false, fmt.Errorf("predicate: %v", err)
	}
	rest = strings.TrimSpace(rest)
	switch {
	case strings.HasPrefix(rest, "<"):
		o, rest, err = takeAngle(rest)
		if err != nil {
			return "", "", "", false, fmt.Errorf("object: %v", err)
		}
	case strings.HasPrefix(rest, `"`):
		end := strings.LastIndex(rest, `"`)
		if end == 0 {
			return "", "", "", false, fmt.Errorf("object: unterminated literal")
		}
		o = rest[1:end]
		rest = rest[end+1:]
		lit = true
	default:
		return "", "", "", false, fmt.Errorf("object: expected '<' or '\"'")
	}
	if strings.TrimSpace(rest) != "" {
		return "", "", "", false, fmt.Errorf("trailing content %q", strings.TrimSpace(rest))
	}
	return s, p, o, lit, nil
}

func takeAngle(s string) (tok, rest string, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "<") {
		return "", "", fmt.Errorf("expected '<'")
	}
	end := strings.Index(s, ">")
	if end < 0 {
		return "", "", fmt.Errorf("unterminated '<'")
	}
	return s[1:end], s[end+1:], nil
}

// Encode writes g in the text format understood by Parse, in a
// deterministic order (subclass assertions, then type assertions, then
// relationship/property triples, each sorted lexically). Names are
// written raw — exactly the bytes Parse reads back, as the format has
// no escapes — so a name containing a line break, or a '>' in a name
// written inside <…>, cannot be represented and is an error.
func (g *Graph) Encode(w io.Writer) error {
	var bad error
	term := func(id ID, quoted bool) string {
		name := g.Name(id)
		if bad == nil && (strings.Contains(name, "\n") || !quoted && strings.Contains(name, ">")) {
			bad = fmt.Errorf("kb: cannot encode name %q: the text format has no escape for a line break or for '>' inside <…>", name)
		}
		if quoted {
			return `"` + name + `"`
		}
		return "<" + name + ">"
	}
	var sub, typ, tri []string
	g.forEachSubclassed(func(s ID, supers []ID) {
		for _, super := range supers {
			sub = append(sub, term(s, false)+" <"+PredSubClassOf+"> "+term(super, false)+" .")
		}
	})
	g.forEachTyped(func(inst ID, classes []ID) {
		for _, c := range classes {
			typ = append(typ, term(inst, false)+" <"+PredType+"> "+term(c, false)+" .")
		}
	})
	for s := 0; s < g.NumNodes(); s++ {
		for _, e := range g.out.view(ID(s)) {
			tri = append(tri, term(ID(s), false)+" "+term(e.Pred, false)+" "+term(e.To, g.kinds[e.To] == KindLiteral)+" .")
		}
	}
	if bad != nil {
		return bad
	}
	bw := bufio.NewWriter(w)
	for _, lines := range [][]string{sub, typ, tri} {
		sort.Strings(lines)
		for _, l := range lines {
			bw.WriteString(l)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
