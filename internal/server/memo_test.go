package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"detective/internal/server"
	"detective/internal/telemetry"
)

// TestMemoInvalidatedOnReload drives the full server path of the
// invalidation contract: warm the cross-request memo over /clean,
// hot-swap the KB via StageReloadKB, and require that (a) a stale cached
// repair is never served after the swap, (b) the drop is visible as a
// generation eviction in /stats, and (c) pre-reload repeats did hit.
func TestMemoInvalidatedOnReload(t *testing.T) {
	s := newReloadServer(t, server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Two cold cleans: the memo's doorkeeper declines the row on its
	// first miss and admits it on its second.
	for i := 0; i < 2; i++ {
		if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
			t.Fatalf("cold clean #%d = %q, want ParisA/EuroA", i+1, got)
		}
	}
	// Same request again: must be byte-identical and memo-served.
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("warm clean = %q, want ParisA/EuroA", got)
	}

	st := memoStats(t, ts.URL)
	if !st.Memo.Enabled {
		t.Fatal("memo should be enabled by default in the server")
	}
	if st.Memo.Tuple.Hits == 0 {
		t.Fatalf("repeated /clean produced no tuple hits: %+v", st.Memo.Tuple)
	}

	if _, _, err := s.StageReloadKB(reloadGraph("B"), 0); err != nil {
		t.Fatalf("StageReloadKB: %v", err)
	}

	// Stale ParisA/EuroA must never appear now.
	for i := 0; i < 3; i++ {
		if got := cleanOne(t, ts.URL); got != "Alice,ParisB,EuroB" {
			t.Fatalf("post-reload clean #%d = %q, want ParisB/EuroB (stale memo served)", i+1, got)
		}
	}

	st = memoStats(t, ts.URL)
	if st.Memo.Tuple.GenEvictions == 0 {
		t.Errorf("no generation evictions counted after reload: %+v", st.Memo.Tuple)
	}

	// A server with the default Config registers its memo series in the
	// process-default telemetry registry; they must survive Prometheus
	// exposition.
	var buf bytes.Buffer
	telemetry.Default().WritePrometheus(&buf)
	if _, err := telemetry.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"detective_memo_hits_total",
		"detective_memo_misses_total",
		"detective_memo_evictions_total",
		"detective_memo_declined_total",
		"detective_memo_bytes",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("Prometheus exposition missing %s", want)
		}
	}
}

// memoStats fetches GET /stats and decodes the memo block.
func memoStats(t *testing.T, url string) server.StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status = %d: %s", resp.StatusCode, body)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding /stats: %v\n%s", err, body)
	}
	return st
}
