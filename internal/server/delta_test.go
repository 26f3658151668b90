package server_test

// Delta reload tests: POST /reload?delta=1 applies an incremental
// DKBD delta to the serving graph through the same
// canary pipeline as a full reload. The fault cases — stale base,
// corrupt bytes, strict-verify rejection — must all leave the serving
// generation untouched, and mixed full/delta reloads under concurrent
// /clean traffic must never tear a row (the -race chaos lane runs
// TestReloadUnderLoadMixedDelta alongside the original reload drills).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"detective/internal/kb"
	"detective/internal/server"
)

// deltaBytes serializes Diff(old, new) the way `kbtool diff` does.
func deltaBytes(t *testing.T, old, new *kb.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kb.Diff(old, new).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postDelta(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"?delta=1", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// deltaStats fetches /stats and decodes it.
func deltaStats(t *testing.T, url string) server.StatsResponse {
	t.Helper()
	sr, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestDeltaReloadEndpoint(t *testing.T) {
	s := newReloadServer(t, server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	// The same handler serves full and delta reloads; the loader is
	// only consulted on the full path.
	ops := httptest.NewServer(s.ReloadHandler(func() (*kb.Graph, error) {
		return reloadGraph("B"), nil
	}))
	defer ops.Close()

	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("pre-delta clean = %q", got)
	}
	// The delta counters are process-global telemetry series (shared by
	// every server in this test binary), so assert increments against a
	// pre-delta baseline rather than absolute values.
	before := deltaStats(t, ts.URL)

	resp, body := postDelta(t, ops.URL, deltaBytes(t, reloadGraph("A"), reloadGraph("B")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta reload status = %d: %s", resp.StatusCode, body)
	}
	var rr struct {
		Generation int64 `json:"generation"`
		Delta      bool  `json:"delta"`
		DeltaOps   int   `json:"deltaOps"`
		Triples    int   `json:"triples"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Delta || rr.DeltaOps == 0 || rr.Generation <= 1 || rr.Triples != 2 {
		t.Fatalf("delta reload response = %+v: %s", rr, body)
	}

	// Repairs now come off the delta-applied generation.
	if got := cleanOne(t, ts.URL); got != "Alice,ParisB,EuroB" {
		t.Fatalf("post-delta clean = %q", got)
	}

	// /stats carries the delta accounting.
	stats := deltaStats(t, ts.URL)
	if stats.KBDeltasApplied != before.KBDeltasApplied+1 ||
		stats.KBDeltaTriples <= before.KBDeltaTriples ||
		stats.KBGeneration != rr.Generation {
		t.Fatalf("stats deltasApplied/deltaTriples/generation = %d/%d/%d, want %d/>%d/%d",
			stats.KBDeltasApplied, stats.KBDeltaTriples, stats.KBGeneration,
			before.KBDeltasApplied+1, before.KBDeltaTriples, rr.Generation)
	}

	// A second delta chains off the first generation's fingerprint.
	resp, body = postDelta(t, ops.URL, deltaBytes(t, reloadGraph("B"), reloadGraph("A")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chained delta status = %d: %s", resp.StatusCode, body)
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("post-chained-delta clean = %q", got)
	}
}

// TestDeltaCanaryRejectsCycle feeds ?delta=1 a delta that would
// introduce a taxonomy cycle: the delta apply succeeds, but
// strict integrity verify must reject the candidate generation with
// 409 before it ever serves.
func TestDeltaCanaryRejectsCycle(t *testing.T) {
	s := newReloadServer(t, server.Config{VerifyMode: "strict"})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ops := httptest.NewServer(s.ReloadHandler(nil))
	defer ops.Close()

	bad := reloadGraph("A")
	bad.AddSubclass("city", "country")
	bad.AddSubclass("country", "city")
	resp, body := postDelta(t, ops.URL, deltaBytes(t, reloadGraph("A"), bad))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cycle delta status = %d, want 409: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "integrity self-check failed") {
		t.Fatalf("cycle delta body = %s", body)
	}
	if s.Store().Swaps() != 0 {
		t.Fatalf("rejected delta swapped in (swaps = %d)", s.Store().Swaps())
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after rejected delta = %q", got)
	}
}

// TestFaultDeltaStaleBase sends a delta computed against a graph the
// server is not serving: refused 409 by the base-fingerprint check
// without perturbing the serving generation.
func TestFaultDeltaStaleBase(t *testing.T) {
	s := newReloadServer(t, server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ops := httptest.NewServer(s.ReloadHandler(nil))
	defer ops.Close()

	startGen := s.Store().Generation()
	resp, body := postDelta(t, ops.URL, deltaBytes(t, reloadGraph("B"), reloadGraph("A")))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-base delta status = %d, want 409: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "base") {
		t.Fatalf("stale-base body = %s", body)
	}
	if got := s.Store().Generation(); got != startGen || s.Store().Swaps() != 0 {
		t.Fatalf("stale-base delta moved generation %d -> %d (swaps %d)",
			startGen, got, s.Store().Swaps())
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after stale-base delta = %q", got)
	}
}

// TestFaultDeltaCorrupt truncates and bit-flips a valid delta stream:
// both must answer 400 without touching the serving graph.
func TestFaultDeltaCorrupt(t *testing.T) {
	s := newReloadServer(t, server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	ops := httptest.NewServer(s.ReloadHandler(nil))
	defer ops.Close()

	good := deltaBytes(t, reloadGraph("A"), reloadGraph("B"))
	truncated := good[:len(good)/2]
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40

	for name, corrupt := range map[string][]byte{
		"truncated": truncated,
		"bit-flip":  flipped,
		"garbage":   []byte("not a delta"),
	} {
		resp, body := postDelta(t, ops.URL, corrupt)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s delta status = %d, want 400: %s", name, resp.StatusCode, body)
		}
	}
	if s.Store().Swaps() != 0 {
		t.Fatalf("corrupt delta swapped in (swaps = %d)", s.Store().Swaps())
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after corrupt deltas = %q", got)
	}
}

// TestReloadUnderLoadMixedDelta interleaves full reloads and chained
// delta applies while concurrent /clean requests stream: every row
// must repair off one coherent generation (suffixes agree), exactly
// like the full-reload-only drill. The chaos lane runs this with
// -race -count=3.
func TestReloadUnderLoadMixedDelta(t *testing.T) {
	s := newReloadServer(t, server.Config{MaxConcurrent: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()

	dAB := kb.Diff(reloadGraph("A"), reloadGraph("B"))
	dBA := kb.Diff(reloadGraph("B"), reloadGraph("A"))

	const rows = 200
	var in strings.Builder
	in.WriteString("Name,City,Country\n")
	for i := 0; i < rows; i++ {
		in.WriteString("Alice,ParisX,EuroX\n")
	}
	csv := in.String()

	done := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		cur := "A"
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%5 == 4 {
				// A content-identical full reload: the next delta still
				// applies because the base fingerprint is unchanged.
				if _, _, err := s.StageReloadKB(reloadGraph(cur), 0); err != nil {
					t.Errorf("full reload %s: %v", cur, err)
					return
				}
				continue
			}
			d := dAB
			next := "B"
			if cur == "B" {
				d, next = dBA, "A"
			}
			if _, _, err := s.StageReloadDelta(d); err != nil {
				t.Errorf("delta %s->%s: %v", cur, next, err)
				return
			}
			cur = next
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(csv))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/clean status = %d: %s", resp.StatusCode, body)
				return
			}
			lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
			if len(lines) != rows+1 {
				t.Errorf("got %d output lines, want %d", len(lines), rows+1)
				return
			}
			for i, line := range lines[1:] {
				f := strings.Split(line, ",")
				if len(f) != 3 {
					t.Errorf("row %d malformed: %q", i, line)
					return
				}
				city, country := f[1], f[2]
				if !strings.HasPrefix(city, "Paris") || !strings.HasPrefix(country, "Euro") {
					t.Errorf("row %d: unexpected repair (%q, %q)", i, city, country)
					return
				}
				if city[len("Paris"):] != country[len("Euro"):] {
					t.Errorf("row %d: mixed-generation repair (%q, %q)", i, city, country)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	swapper.Wait()
	if s.Store().Swaps() == 0 {
		t.Fatal("no swap happened during the run")
	}
}
