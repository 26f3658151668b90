package dataset_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"detective/internal/dataset"
	"detective/internal/rules"
)

// TestNobelDigestsPinned pins the generated Nobel inputs byte for
// byte. The name generator enforces pairwise edit distance through
// similarity.StringIndex, so a change to the index's lookup results
// would silently change every generated workload, and a benchmark
// comparing two commits on inputs built from the same seed would run
// them on different data. The digests must never change.
func TestNobelDigestsPinned(t *testing.T) {
	cases := []struct {
		n                   int
		kb, rules, injected string
	}{
		{1069,
			"feb414e3a5592cffb6d97c8bd911d327fe67d5959000b394b9a000f92f916c6f",
			"b2396e401e0295331fcd43d2c2eca12e18e1d5ec59c557f344d0fa879ee2e02b",
			"cddcdf95b148eb05dc3a11394c4b1eea6bc4a810bc8c22246031b16c82a821f7"},
		{4000,
			"b650c8e78c6aa90b66b1fb3f1a07171f67f23af609a71d20c307b03a1afd8084",
			"b2396e401e0295331fcd43d2c2eca12e18e1d5ec59c557f344d0fa879ee2e02b",
			"64869f96c33fbf334875d17c04f5bd2966d6efaefb38c78357a292fb99458500"},
	}
	for _, c := range cases {
		b := dataset.NewNobel(1, c.n)
		inj := b.Inject(dataset.Noise{Rate: 0.3, TypoFrac: 0.8, Seed: 1})
		got := []struct{ what, want, sum string }{
			{"KB Encode", c.kb, digest(t, b.Yago.Encode)},
			{"EncodeRules", c.rules, digest(t, func(w io.Writer) error { return rules.EncodeRules(w, b.Rules) })},
			{"injected dirty table", c.injected, digest(t, inj.Dirty.WriteCSV)},
		}
		for _, g := range got {
			if g.sum != g.want {
				t.Errorf("NewNobel(1, %d) %s: sha256 %s, want %s", c.n, g.what, g.sum, g.want)
			}
		}
	}
}

func digest(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
