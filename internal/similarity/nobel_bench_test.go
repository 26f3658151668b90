package similarity_test

import (
	"testing"

	"detective/internal/dataset"
	"detective/internal/similarity"
)

var lookupSink []int32

// BenchmarkLookupEDNobel times LookupED shaped like a cold tenant's
// serving lookups: the organization and city name indexes
// kb.Graph.NameIndex builds for Nobel-1069 (maxK 3), queried at ED,2
// with the Institution and City cells of 800 rows injected at the
// serving benchmark's noise (30% of cells, 80% of them typos). It is an
// external test package because dataset imports similarity.
func BenchmarkLookupEDNobel(b *testing.B) {
	bd := dataset.NewNobel(1, 1069)
	inj := bd.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.8, Seed: 1})
	type query struct {
		ix *similarity.StringIndex
		q  string
	}
	var queries []query
	for _, c := range []struct{ col, class string }{{"Institution", "organization"}, {"City", "city"}} {
		ix := bd.Yago.NameIndex(bd.Yago.Lookup(c.class))
		col := bd.Schema.MustCol(c.col)
		for _, t := range inj.Dirty.Tuples[:800] {
			queries = append(queries, query{ix, t.Values[col]})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		lookupSink = q.ix.LookupED(q.q, 2)
	}
}
