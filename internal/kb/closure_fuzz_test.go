package kb_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"detective/internal/kb"
)

// FuzzTypeClosure holds HasType, TypesOf and InstancesOf to a
// map-based transitive closure over a random taxonomy: classes with
// subclass edges (DAGs, cycles and self-loops alike), instances with
// zero or more direct classes, and one literal per instance. The same
// content is checked text-parsed, decoded from a snapshot and mmap'd,
// and on each of the three after two deltas: one that adds a class
// under an existing one with an instance of it (the class closures are
// rebuilt), then one that adds a class with no superclass and an
// instance of it and of an old class (the closures are shared).
//
// Input bytes: the class and instance counts, then pairs (a, b): a
// even is the subclass edge c[a/2] ⊂ c[b], a odd types i[a/2] with
// c[b], indexes taken modulo the counts.
func FuzzTypeClosure(f *testing.F) {
	// A diamond DAG with a multi-typed instance and an untyped one.
	f.Add(taxonomySeed(4, 3, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, [][2]int{{0, 0}, {1, 1}, {1, 2}}))
	// A three-class cycle under a root, and a self-loop.
	f.Add(taxonomySeed(5, 2, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 4}}, [][2]int{{0, 1}, {1, 4}}))
	// Two disjoint chains, an instance typed in both.
	f.Add(taxonomySeed(6, 2, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}}, [][2]int{{0, 0}, {0, 3}, {1, 5}}))

	// One snapshot file per fuzz process, rewritten in place with a
	// fixed mtime, as in FuzzLoadSnapshot: a process maps each file
	// version once and never unmaps it.
	path := filepath.Join(f.TempDir(), "taxonomy.dkbs")
	mtime := time.Unix(1<<30, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		tx := decodeTaxonomy(data)
		k := 0
		if len(data) > 0 {
			k = int(data[len(data)-1]) % tx.classes
		}
		// Delta 1: class cx under c[k], with an instance of it.
		tx1 := tx.with([]string{"cx", fmt.Sprintf("c%d", k)}, nil, [][2]string{{"ix", "cx"}})
		// Delta 2: class cy with no superclass; iy is of cy and c[k].
		tx2 := tx1.with(nil, []string{"cy"}, [][2]string{{"iy", "cy"}, {"iy", fmt.Sprintf("c%d", k)}})
		g0, g1, g2 := parseKB(t, tx.text()), parseKB(t, tx1.text()), parseKB(t, tx2.text())
		d1, d2 := kb.Diff(g0, g1), kb.Diff(g1, g2)

		snap := snapshotBytes(t, g0)
		for _, form := range []struct {
			name string
			load func() *kb.Graph
		}{
			{"parsed", func() *kb.Graph { return parseKB(t, tx.text()) }},
			{"decoded", func() *kb.Graph {
				g, err := kb.LoadSnapshot(bytes.NewReader(snap))
				if err != nil {
					t.Fatalf("LoadSnapshot: %v", err)
				}
				return g
			}},
			{"mmap", func() *kb.Graph {
				if err := os.WriteFile(path, snap, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(path, mtime, mtime); err != nil {
					t.Fatal(err)
				}
				g, err := kb.LoadSnapshotFile(path)
				if err != nil {
					t.Fatalf("LoadSnapshotFile: %v", err)
				}
				return g
			}},
		} {
			g := form.load()
			checkClosure(t, form.name, g, tx)
			a1, err := g.ApplyDelta(d1)
			if err != nil {
				t.Fatalf("%s: ApplyDelta 1: %v", form.name, err)
			}
			checkClosure(t, form.name+"+delta1", a1, tx1)
			a2, err := a1.ApplyDelta(d2)
			if err != nil {
				t.Fatalf("%s: ApplyDelta 2: %v", form.name, err)
			}
			checkClosure(t, form.name+"+delta2", a2, tx2)
		}
	})
}

// taxonomy is a fuzzed taxonomy by name: the reference side.
type taxonomy struct {
	classes, insts int
	extra          []string    // classes past c0..c[classes-1]
	subs           [][2]string // sub ⊂ super
	types          [][2]string // instance : class
	instNames      []string    // i0..i[insts-1], then added instances
}

func decodeTaxonomy(data []byte) taxonomy {
	tx := taxonomy{classes: 1, insts: 1}
	if len(data) > 0 {
		tx.classes = 1 + int(data[0])%7
	}
	if len(data) > 1 {
		tx.insts = 1 + int(data[1])%7
	}
	for i := 0; i < tx.insts; i++ {
		tx.instNames = append(tx.instNames, fmt.Sprintf("i%d", i))
	}
	for p := 2; p+1 < len(data) && p < 2+2*64; p += 2 {
		a, b := int(data[p]), int(data[p+1])
		cls := fmt.Sprintf("c%d", b%tx.classes)
		if a%2 == 0 {
			tx.subs = append(tx.subs, [2]string{fmt.Sprintf("c%d", (a/2)%tx.classes), cls})
		} else {
			tx.types = append(tx.types, [2]string{fmt.Sprintf("i%d", (a/2)%tx.insts), cls})
		}
	}
	return tx
}

// taxonomySeed encodes a taxonomy in decodeTaxonomy's byte format.
func taxonomySeed(classes, insts int, subs, types [][2]int) []byte {
	b := []byte{byte(classes - 1), byte(insts - 1)}
	for _, s := range subs {
		b = append(b, byte(2*s[0]), byte(s[1]))
	}
	for _, ty := range types {
		b = append(b, byte(2*ty[0]+1), byte(ty[1]))
	}
	return b
}

// with returns a copy of tx with a subclass edge sub (a pair, or nil),
// classes extra and type assertions added; a new instance is added to
// the instance names.
func (tx taxonomy) with(sub []string, extra []string, types [][2]string) taxonomy {
	out := tx
	out.extra = append(slices.Clone(tx.extra), extra...)
	out.subs = slices.Clone(tx.subs)
	if sub != nil {
		out.subs = append(out.subs, [2]string{sub[0], sub[1]})
	}
	out.types = append(slices.Clone(tx.types), types...)
	out.instNames = slices.Clone(tx.instNames)
	for _, ty := range types {
		if !slices.Contains(out.instNames, ty[0]) {
			out.instNames = append(out.instNames, ty[0])
		}
	}
	return out
}

// text renders tx in the KB text format; each instance carries a
// literal label, so every instance is a node and literals exist.
func (tx taxonomy) text() string {
	var b strings.Builder
	for _, s := range tx.subs {
		fmt.Fprintf(&b, "<%s> <subClassOf> <%s> .\n", s[0], s[1])
	}
	for _, ty := range tx.types {
		fmt.Fprintf(&b, "<%s> <type> <%s> .\n", ty[0], ty[1])
	}
	for _, i := range tx.instNames {
		fmt.Fprintf(&b, "<%s> <label> \"l-%s\" .\n", i, i)
	}
	return b.String()
}

// classNames returns every class name tx can mention.
func (tx taxonomy) classNames() []string {
	var out []string
	for c := 0; c < tx.classes; c++ {
		out = append(out, fmt.Sprintf("c%d", c))
	}
	return append(out, tx.extra...)
}

// closure returns the classes reachable from c through subclass edges,
// c included, by a breadth-first walk over a map.
func (tx taxonomy) closure(c string) map[string]bool {
	supers := make(map[string][]string)
	for _, s := range tx.subs {
		supers[s[0]] = append(supers[s[0]], s[1])
	}
	seen := map[string]bool{c: true}
	queue := []string{c}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, s := range supers[x] {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return seen
}

// typesOf is the reference TypesOf of node name, sorted by name.
func (tx taxonomy) typesOf(name string) []string {
	if strings.HasPrefix(name, "l-") {
		return []string{kb.LiteralClass}
	}
	set := make(map[string]bool)
	for _, ty := range tx.types {
		if ty[0] == name {
			for c := range tx.closure(ty[1]) {
				set[c] = true
			}
		}
	}
	var out []string
	for c := range set {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// checkClosure compares g's closure reads with tx's, by name.
func checkClosure(t *testing.T, form string, g *kb.Graph, tx taxonomy) {
	t.Helper()
	var nodes []string
	for _, i := range tx.instNames {
		nodes = append(nodes, i, "l-"+i)
	}
	classes := append(tx.classNames(), kb.LiteralClass)
	nodes = append(nodes, classes...)
	members := make(map[string][]string) // class -> reference extent
	for _, n := range nodes {
		id := g.Lookup(n)
		want := tx.typesOf(n)
		if id == kb.Invalid {
			if len(want) > 0 && !slices.Contains(tx.classNames(), n) {
				t.Fatalf("%s: node %q missing", form, n)
			}
			continue
		}
		for _, c := range want {
			members[c] = append(members[c], n)
		}
		if got := names(g, g.TypesOf(id)); !slices.Equal(got, want) {
			t.Fatalf("%s: TypesOf(%s) = %v, want %v", form, n, got, want)
		}
		for _, c := range classes {
			cls := g.Lookup(c)
			if cls == kb.Invalid {
				continue
			}
			if got, want := g.HasType(id, cls), slices.Contains(want, c); got != want {
				t.Fatalf("%s: HasType(%s, %s) = %v, want %v", form, n, c, got, want)
			}
		}
	}
	for _, c := range classes {
		cls := g.Lookup(c)
		if cls == kb.Invalid {
			if len(members[c]) > 0 {
				t.Fatalf("%s: class %q missing", form, c)
			}
			continue
		}
		ext := g.InstancesOf(cls)
		if !slices.IsSorted(ext) || len(slices.Compact(slices.Clone(ext))) != len(ext) {
			t.Fatalf("%s: InstancesOf(%s) = %v, want ascending IDs, once each", form, c, ext)
		}
		got, want := names(g, ext), members[c]
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: InstancesOf(%s) = %v, want %v", form, c, got, want)
		}
	}
}

// names returns the names of ids, sorted.
func names(g *kb.Graph, ids []kb.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Name(id)
	}
	slices.Sort(out)
	return out
}
