//go:build !race

// The race detector makes sync.Pool drop a quarter of what it is
// given, so allocation counts are only meaningful without it.

package rules_test

import (
	"testing"

	"detective/internal/dataset"
	"detective/internal/relation"
	"detective/internal/rules"
)

// TestVerdictAllocatesNothing: once its scratch buffers are pooled and
// the candidate cache is warm, VerdictOn allocates nothing for a
// NoMatch verdict or for a Positive one that canonicalises no cell —
// only Repairs and Canonical, the parts of a verdict that outlive the
// call, are allocated.
func TestVerdictAllocatesNothing(t *testing.T) {
	ex := dataset.NewPaperExample()
	cat := rules.NewCatalog(ex.KB)
	want := map[rules.OutcomeKind]bool{rules.NoMatch: true, rules.Positive: true}
	for _, dr := range ex.Rules {
		m, err := rules.NewMatcher(dr, cat, ex.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range append(append([]*relation.Tuple(nil), ex.Dirty.Tuples...), ex.Truth.Tuples...) {
			out := m.VerdictOn(ex.KB, tu)
			if !want[out.Kind] || out.Canonical != nil {
				continue
			}
			delete(want, out.Kind)
			if n := testing.AllocsPerRun(100, func() { m.VerdictOn(ex.KB, tu) }); n != 0 {
				t.Errorf("%s on %q (%v): %v allocs per VerdictOn, want 0", dr.Name, tu.Values, out.Kind, n)
			}
		}
	}
	for k := range want {
		t.Errorf("no %v verdict without canonical cells in the paper example", k)
	}
}
