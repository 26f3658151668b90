package rules

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"detective/internal/similarity"
)

// The rule text format is line-oriented:
//
//	rule phi2 {
//	  node w1 col="Name" type="Nobel laureates in Chemistry" sim="="
//	  node w2 col="Institution" type="organization" sim="ED,2"
//	  pos  p2 col="City" type="city" sim="="
//	  neg  n2 col="City" type="city" sim="="
//	  edge w1 "worksAt" w2
//	  edge w1 "wasBornIn" n2
//	  edge w2 "locatedIn" p2
//	}
//
// Unquoted values are accepted where they contain no spaces. "#"
// starts a comment. A rule may omit the neg line (annotation-only).
// Existential intermediate nodes of a positive/negative path are
// declared with `path NAME type="T"` and referenced by edges like any
// other node.

// ParseRules reads all rules from r. Rules are not validated against
// a schema here; call DR.Validate (or NewMatcher) with the target
// schema afterwards.
func ParseRules(r io.Reader) ([]*DR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []*DR
	var cur *DR
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("rules: line %d: %v", lineno, err)
		}
		switch fields[0] {
		case "rule":
			if cur != nil {
				return nil, fmt.Errorf("rules: line %d: nested rule", lineno)
			}
			if len(fields) != 3 || fields[2] != "{" {
				return nil, fmt.Errorf("rules: line %d: want `rule NAME {`", lineno)
			}
			cur = &DR{Name: fields[1]}
		case "}":
			if cur == nil {
				return nil, fmt.Errorf("rules: line %d: unmatched }", lineno)
			}
			if cur.Pos.Name == "" {
				return nil, fmt.Errorf("rules: line %d: rule %s has no pos node", lineno, cur.Name)
			}
			out = append(out, cur)
			cur = nil
		case "path":
			if cur == nil {
				return nil, fmt.Errorf("rules: line %d: path outside rule", lineno)
			}
			n, err := parseNode(fields)
			if err != nil {
				return nil, fmt.Errorf("rules: line %d: %v", lineno, err)
			}
			if n.Col != "" {
				return nil, fmt.Errorf("rules: line %d: path node %s must not bind a column", lineno, n.Name)
			}
			cur.Path = append(cur.Path, PathNode{Name: n.Name, Type: n.Type})
		case "node", "pos", "neg":
			if cur == nil {
				return nil, fmt.Errorf("rules: line %d: %s outside rule", lineno, fields[0])
			}
			n, err := parseNode(fields)
			if err != nil {
				return nil, fmt.Errorf("rules: line %d: %v", lineno, err)
			}
			if n.Col == "" {
				return nil, fmt.Errorf("rules: line %d: %s node %s needs col=", lineno, fields[0], n.Name)
			}
			switch fields[0] {
			case "node":
				cur.Evidence = append(cur.Evidence, n)
			case "pos":
				if cur.Pos.Name != "" {
					return nil, fmt.Errorf("rules: line %d: duplicate pos node", lineno)
				}
				cur.Pos = n
			case "neg":
				if cur.Neg != nil {
					return nil, fmt.Errorf("rules: line %d: duplicate neg node", lineno)
				}
				nn := n
				cur.Neg = &nn
			}
		case "edge":
			if cur == nil {
				return nil, fmt.Errorf("rules: line %d: edge outside rule", lineno)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("rules: line %d: want `edge FROM REL TO`", lineno)
			}
			cur.Edges = append(cur.Edges, Edge{From: fields[1], Rel: fields[2], To: fields[3]})
		default:
			return nil, fmt.Errorf("rules: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("rules: rule %s not closed", cur.Name)
	}
	return out, nil
}

func parseNode(fields []string) (Node, error) {
	if len(fields) < 2 {
		return Node{}, fmt.Errorf("node line needs a name")
	}
	n := Node{Name: fields[1], Sim: similarity.Eq}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Node{}, fmt.Errorf("bad node attribute %q", f)
		}
		switch k {
		case "col":
			n.Col = v
		case "type":
			n.Type = v
		case "sim":
			sp, err := similarity.ParseSpec(v)
			if err != nil {
				return Node{}, err
			}
			n.Sim = sp
		default:
			return Node{}, fmt.Errorf("unknown node attribute %q", k)
		}
	}
	if n.Type == "" {
		return Node{}, fmt.Errorf("node %s needs type=", n.Name)
	}
	return n, nil
}

// splitFields splits a line into blank-separated fields. A double-quoted
// segment, alone or inside a field (col="Full Name"), is a Go string
// literal: its escapes are decoded by strconv.Unquote rules, so every
// value EncodeRules quotes parses back unchanged.
func splitFields(line string) ([]string, error) {
	var fields []string
	var b strings.Builder
	inField := false
	for i := 0; i < len(line); {
		switch c := line[i]; {
		case c == '"':
			lit, err := strconv.QuotedPrefix(line[i:])
			if err != nil {
				return nil, fmt.Errorf("bad quoted string at column %d", i+1)
			}
			s, _ := strconv.Unquote(lit) // cannot fail: QuotedPrefix validated lit
			b.WriteString(s)
			inField = true
			i += len(lit)
		case c == ' ' || c == '\t':
			if inField {
				fields = append(fields, b.String())
				b.Reset()
				inField = false
			}
			i++
		default:
			b.WriteByte(c)
			inField = true
			i++
		}
	}
	if inField {
		fields = append(fields, b.String())
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty line")
	}
	return fields, nil
}

// EncodeRules writes rules in the text format accepted by ParseRules.
func EncodeRules(w io.Writer, rs []*DR) error {
	bw := bufio.NewWriter(w)
	for i, r := range rs {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		fmt.Fprintf(bw, "rule %s {\n", quoteIfNeeded(r.Name))
		for _, n := range r.Evidence {
			writeNode(bw, "node", n)
		}
		writeNode(bw, "pos ", r.Pos)
		if r.Neg != nil {
			writeNode(bw, "neg ", *r.Neg)
		}
		for _, pn := range r.Path {
			fmt.Fprintf(bw, "  path %s type=%s\n", quoteIfNeeded(pn.Name), strconv.Quote(pn.Type))
		}
		for _, e := range r.Edges {
			fmt.Fprintf(bw, "  edge %s %s %s\n", quoteIfNeeded(e.From), quoteIfNeeded(e.Rel), quoteIfNeeded(e.To))
		}
		fmt.Fprintln(bw, "}")
	}
	return bw.Flush()
}

func writeNode(w io.Writer, kw string, n Node) {
	fmt.Fprintf(w, "  %s %s col=%s type=%s sim=%s\n",
		kw, quoteIfNeeded(n.Name), strconv.Quote(n.Col), strconv.Quote(n.Type), strconv.Quote(n.Sim.String()))
}

// quoteIfNeeded leaves s bare when it reads back as one field
// unchanged: non-empty, printable, without blanks or double quotes.
func quoteIfNeeded(s string) string {
	if s == "" || strings.ContainsFunc(s, func(r rune) bool {
		return r == '"' || unicode.IsSpace(r) || !unicode.IsPrint(r)
	}) {
		return strconv.Quote(s)
	}
	return s
}
