package kb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
)

// TestApplyDeltaMatchesFreshLoad is the "delta apply ≡ repack"
// equivalence: a chain of random deltas applied to Nobel-1069's KB in
// each base form (text-parsed, decoded snapshot, mmap'd snapshot) must
// at every step read exactly like the target content parsed fresh —
// same canonical text and fingerprint, and the same answer by name
// from every read accessor rule matching uses. Nodes the target no
// longer references stay interned in the applied graph as orphans; they
// must keep no edges and no types.
func TestApplyDeltaMatchesFreshLoad(t *testing.T) {
	texts := []string{encodeKB(t, dataset.NewNobel(1, 1069).Yago)}
	rng := rand.New(rand.NewSource(18))
	for step := 1; step <= 3; step++ {
		texts = append(texts, editKB(rng, texts[step-1], step))
	}
	targets := make([]*kb.Graph, len(texts))
	for i, txt := range texts {
		targets[i] = parseKB(t, txt)
	}

	for _, form := range []struct {
		name string
		load func(*testing.T, string) *kb.Graph
	}{
		{"mutable", parseKB},
		{"decoded", func(t *testing.T, txt string) *kb.Graph {
			g, err := kb.LoadSnapshot(bytes.NewReader(snapshotBytes(t, parseKB(t, txt))))
			if err != nil {
				t.Fatalf("LoadSnapshot: %v", err)
			}
			return g
		}},
		{"mmap", func(t *testing.T, txt string) *kb.Graph {
			path := filepath.Join(t.TempDir(), "base.dkbs")
			if err := os.WriteFile(path, snapshotBytes(t, parseKB(t, txt)), 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := kb.LoadSnapshotFile(path)
			if err != nil {
				t.Fatalf("LoadSnapshotFile: %v", err)
			}
			return g
		}},
	} {
		t.Run(form.name, func(t *testing.T) {
			g := form.load(t, texts[0])
			g.Freeze()
			for step := 1; step < len(texts); step++ {
				d := kb.Diff(targets[step-1], targets[step])
				next, err := g.ApplyDelta(d)
				if err != nil {
					t.Fatalf("step %d: ApplyDelta(%v): %v", step, d, err)
				}
				next.Freeze()
				sameByName(t, fmt.Sprintf("step %d", step), next, targets[step])
				g = next
			}
		})
	}
}

// editKB returns text with a random edit of every kind a delta carries:
// triples removed and added (with new entities, literals and a new
// predicate), type assertions removed and added, acyclic subclass
// edits, one entity and one literal orphaned outright, and — at step 2
// — one literal turned into an instance (a kind change).
func editKB(rng *rand.Rand, text string, step int) string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	var ents, classes, preds []string
	var lits []string
	for _, l := range lines {
		s, p, o := splitLine(l)
		switch p {
		case kb.PredSubClassOf:
			classes = append(classes, s, o)
		case kb.PredType:
			ents = append(ents, s)
			classes = append(classes, o)
		default:
			ents = append(ents, s)
			preds = append(preds, p)
			if strings.HasPrefix(o, `"`) {
				lits = append(lits, o)
			}
		}
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	orphan := "<" + pick(ents) + ">"
	orphanLit := pick(lits)
	var kindChange string
	if step == 2 {
		for kindChange == "" || kindChange == orphanLit {
			kindChange = pick(lits)
		}
	}

	var out []string
	for _, l := range lines {
		if strings.Contains(l, orphan) || strings.HasSuffix(l, " "+orphanLit+" .") || rng.Intn(50) == 0 {
			continue
		}
		if s, p, _ := splitLine(l); p == kb.PredSubClassOf && rng.Intn(4) == 0 {
			continue
		} else if kindChange != "" && strings.HasSuffix(l, " "+kindChange+" .") {
			l = fmt.Sprintf("<%s> <%s> <%s> .", s, p, strings.Trim(kindChange, `"`))
		}
		out = append(out, l)
	}
	add := func(s, p, o string) { out = append(out, fmt.Sprintf("<%s> <%s> %s .", s, p, o)) }
	for i := 0; i < 40; i++ {
		add(pick(ents), pick(preds), "<"+pick(ents)+">")
	}
	for i := 0; i < 10; i++ {
		ent := fmt.Sprintf("Delta Entity %d-%d", step, i)
		add(ent, pick(preds), "<"+pick(ents)+">")
		add(pick(ents), pick(preds), "<"+ent+">")
		add(ent, kb.PredType, "<"+pick(classes)+">")
		add(pick(ents), "deltaProp", fmt.Sprintf(`"delta literal %d-%d"`, step, i))
		add(pick(ents), pick(preds), fmt.Sprintf(`"delta value %d-%d"`, step, i))
		add(pick(ents), kb.PredType, "<"+pick(classes)+">")
	}
	// Fresh classes keep the taxonomy acyclic: a new leaf under an
	// existing class, and a new root above an existing class.
	leaf := fmt.Sprintf("Delta Leaf %d", step)
	root := fmt.Sprintf("Delta Root %d", step)
	add(leaf, kb.PredSubClassOf, "<"+pick(classes)+">")
	add(pick(classes), kb.PredSubClassOf, "<"+root+">")
	for i := 0; i < 3; i++ {
		add(pick(ents), kb.PredType, "<"+leaf+">")
	}
	return strings.Join(out, "\n") + "\n"
}

// splitLine splits one canonical text line into its subject and
// predicate names and its raw object token (quoted for a literal).
func splitLine(l string) (s, p, o string) {
	l = strings.TrimSuffix(l, " .")
	i := strings.Index(l, "> <")
	j := i + 3 + strings.Index(l[i+3:], "> ")
	return l[1:i], l[i+3 : j], strings.Trim(l[j+2:], "<>")
}

// sameByName asserts that got reads exactly like want, comparing every
// answer by node name.
func sameByName(t *testing.T, step string, got, want *kb.Graph) {
	t.Helper()
	if g, w := encodeKB(t, got), encodeKB(t, want); g != w {
		t.Fatalf("%s: canonical text differs (%d vs %d bytes)", step, len(g), len(w))
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Fatalf("%s: fingerprint %016x, want %016x", step, g, w)
	}
	if got.Lookup("no such node") != kb.Invalid {
		t.Fatalf("%s: Lookup invented a node", step)
	}
	// Predicates of both graphs, by name: got may keep orphaned ones.
	var predNames []string
	for _, g := range []*kb.Graph{got, want} {
		for _, p := range g.Predicates() {
			predNames = append(predNames, g.Name(p))
		}
	}
	slices.Sort(predNames)
	predNames = slices.Compact(predNames)

	fail := func(name, what string, g, w []string) {
		t.Fatalf("%s: %s(%q) = %q, want %q", step, what, name, g, w)
	}
	for i := 0; i < want.NumNodes(); i++ {
		wid := kb.ID(i)
		name := want.Name(wid)
		gid := got.Lookup(name)
		if gid == kb.Invalid || got.Name(gid) != name {
			t.Fatalf("%s: Lookup/Name lost %q", step, name)
		}
		if g, w := got.KindOf(gid), want.KindOf(wid); g != w {
			t.Fatalf("%s: KindOf(%q) = %v, want %v", step, name, g, w)
		}
		for _, c := range []struct {
			what string
			g, w []string
		}{
			{"Out", edgeNames(got, got.Out(gid)), edgeNames(want, want.Out(wid))},
			{"In", edgeNames(got, got.In(gid)), edgeNames(want, want.In(wid))},
			{"DirectTypes", idNames(got, got.DirectTypes(gid)), idNames(want, want.DirectTypes(wid))},
			{"TypesOf", idNames(got, got.TypesOf(gid)), idNames(want, want.TypesOf(wid))},
		} {
			if !slices.Equal(c.g, c.w) {
				fail(name, c.what, c.g, c.w)
			}
		}
		if name == kb.LiteralClass {
			// Every literal node is a member of the reserved literal
			// class, orphaned literals included; the rest must match.
			var live []string
			for _, n := range idNames(got, got.InstancesOf(gid)) {
				if want.Lookup(n) != kb.Invalid {
					live = append(live, n)
				}
			}
			if w := idNames(want, want.InstancesOf(wid)); !slices.Equal(live, w) {
				fail(name, "InstancesOf", live, w)
			}
		} else if g, w := idNames(got, got.InstancesOf(gid)), idNames(want, want.InstancesOf(wid)); !slices.Equal(g, w) {
			fail(name, "InstancesOf", g, w)
		}
		for _, pn := range predNames {
			gp, wp := got.Lookup(pn), want.Lookup(pn)
			var wObj, wSubj []string
			if wp != kb.Invalid {
				wObj = idNames(want, want.Objects(wid, wp))
				wSubj = idNames(want, want.Subjects(wp, wid))
			}
			if g := idNames(got, got.Objects(gid, gp)); !slices.Equal(g, wObj) {
				fail(name, "Objects/"+pn, g, wObj)
			}
			if g := idNames(got, got.Subjects(gp, gid)); !slices.Equal(g, wSubj) {
				fail(name, "Subjects/"+pn, g, wSubj)
			}
		}
	}

	for i := 0; i < got.NumNodes(); i++ {
		id := kb.ID(i)
		name := got.Name(id)
		if want.Lookup(name) != kb.Invalid {
			continue
		}
		if len(got.Out(id)) > 0 || len(got.In(id)) > 0 || len(got.DirectTypes(id)) > 0 {
			t.Fatalf("%s: orphan %q keeps edges or types", step, name)
		}
		if got.KindOf(id) != kb.KindLiteral && len(got.TypesOf(id)) > 0 {
			t.Fatalf("%s: orphan %q keeps types %q", step, name, idNames(got, got.TypesOf(id)))
		}
		for _, pn := range predNames {
			if p := got.Lookup(pn); len(got.Objects(id, p)) > 0 || len(got.Subjects(p, id)) > 0 {
				t.Fatalf("%s: orphan %q keeps %s pairs", step, name, pn)
			}
		}
	}
}

func idNames(g *kb.Graph, ids []kb.ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Name(id)
	}
	slices.Sort(out)
	return out
}

func edgeNames(g *kb.Graph, es []kb.Edge) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = g.Name(e.Pred) + " -> " + g.Name(e.To)
	}
	slices.Sort(out)
	return out
}

func encodeKB(t *testing.T, g *kb.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.String()
}

func parseKB(t *testing.T, text string) *kb.Graph {
	t.Helper()
	g, err := kb.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return g
}

func snapshotBytes(t *testing.T, g *kb.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshotV2(&buf); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	return buf.Bytes()
}
