package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"detective/internal/dataset"
	"detective/internal/server"
	"detective/internal/similarity"
)

// nobelBody is a /clean body of Nobel-n rows with injected noise.
func nobelBody(t *testing.T, b *dataset.Bundle) string {
	t.Helper()
	inj := b.Inject(dataset.Noise{Rate: 0.10, TypoFrac: 0.5, Seed: 1})
	var buf bytes.Buffer
	if err := inj.Dirty.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// cleanNobel POSTs body to /clean and requires a 200.
func cleanNobel(t *testing.T, url, body string) {
	t.Helper()
	if status, out, _ := postClean(t, url+"/clean", body); status != http.StatusOK {
		t.Fatalf("/clean status = %d: %s", status, out)
	}
}

// signatureIndexSize reads /stats' signatureIndex.size.
func signatureIndexSize(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.SignatureIndex.Size
}

// TestStatsIndexSizeCountsEvidenceClasses: a new server builds no
// signature index, and serving Nobel rows builds exactly the indexes
// of the rules' similarity evidence classes (organization and city).
// Exact evidence nodes read the KB's name table, and fRepair resolves
// positive and negative nodes through KB edges, so their classes
// (Nobel laureates in Chemistry and literal among them) stay unbuilt.
func TestStatsIndexSizeCountsEvidenceClasses(t *testing.T) {
	b := dataset.NewNobel(1, 300)
	s, err := server.New(b.Rules, b.Yago, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	if n := signatureIndexSize(t, ts.URL); n != 0 {
		t.Fatalf("signatureIndex.size = %d before any request, want 0", n)
	}

	cleanNobel(t, ts.URL, nobelBody(t, b))

	g := s.Store().Graph()
	want, seen := 0, map[string]bool{}
	for _, dr := range b.Rules {
		for _, n := range dr.Evidence {
			if n.Sim.Op != similarity.OpEq && !seen[n.Type] {
				seen[n.Type] = true
				want += len(g.InstancesOf(g.Lookup(n.Type)))
			}
		}
	}
	if got := signatureIndexSize(t, ts.URL); got != want {
		t.Fatalf("signatureIndex.size = %d after serving, want %d (the evidence classes %v)", got, want, seen)
	}
}

// TestPromotionLeavesNoIndexToBuild: the canary's shadow replay builds
// the candidate graph's indexes on the graph itself, so after the
// promotion the serving engine's first request on the new generation
// builds none.
func TestPromotionLeavesNoIndexToBuild(t *testing.T) {
	b := dataset.NewNobel(1, 300)
	s, err := server.NewWithConfig(b.Rules, b.Yago, b.Schema, server.Config{RecorderSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := nobelBody(t, b)
	cleanNobel(t, ts.URL, body)

	cand := dataset.NewNobel(1, 300).Yago
	if n := cand.IndexedNames(); n != 0 {
		t.Fatalf("fresh candidate has %d indexed names", n)
	}
	_, rep, err := s.StageReloadKB(cand, 0)
	if err != nil || !rep.Promoted || rep.ReplayedRows == 0 {
		t.Fatalf("StageReloadKB = (%+v, %v), want a promotion after a replay", rep, err)
	}
	if s.Store().Graph() != cand {
		t.Fatal("candidate not served after promotion")
	}
	built := cand.IndexedNames()
	if built == 0 {
		t.Fatal("shadow replay built no index on the candidate")
	}

	cleanNobel(t, ts.URL, body)
	if got := cand.IndexedNames(); got != built {
		t.Fatalf("first request after promotion built indexes: %d indexed names, was %d", got, built)
	}
	if got := signatureIndexSize(t, ts.URL); got != built {
		t.Fatalf("signatureIndex.size = %d, want the served graph's %d", got, built)
	}
}
