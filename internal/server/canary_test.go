package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"detective/internal/faultinject"
	"detective/internal/kb"
	"detective/internal/server"
)

// canaryBadGraph builds a candidate that looks fine structurally but
// poisons serving: it adds "Bob" as a person, so client rows naming
// Bob suddenly match rule evidence and push their Country cell into
// the similarity kernel — where a fault-injection hook panics on the
// poison marker. On the live graph the same rows are inert (no Bob,
// no evidence match, the poisoned cell is never examined).
func canaryBadGraph() *kb.Graph {
	g := reloadGraph("B")
	g.AddType("Bob", "person")
	g.AddTriple("Bob", "livesIn", "ParisB")
	g.AddTriple("Bob", "citizenOf", "EuroB")
	return g
}

// postReload POSTs to a reload handler serving candidate g and returns
// the status code and body.
func postReload(t *testing.T, s *server.Server, g *kb.Graph) (int, string) {
	t.Helper()
	h := httptest.NewServer(s.ReloadHandler(func() (*kb.Graph, error) { return g, nil }))
	defer h.Close()
	resp, err := http.Post(h.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestCanaryRejectsStrictVerifyFailure: in strict mode a structurally
// suspect candidate (taxonomy cycle) is rejected with 409 before any
// swap, and the live graph keeps serving.
func TestCanaryRejectsStrictVerifyFailure(t *testing.T) {
	s := newReloadServer(t, server.Config{VerifyMode: "strict"})
	ts := httptest.NewServer(s)
	defer ts.Close()

	bad := reloadGraph("B")
	bad.AddSubclass("city", "country")
	bad.AddSubclass("country", "city")

	status, body := postReload(t, s, bad)
	if status != http.StatusConflict {
		t.Fatalf("/reload status = %d: %s", status, body)
	}
	if !strings.Contains(body, "integrity self-check failed") {
		t.Fatalf("rejection body = %s", body)
	}
	if s.Store().Swaps() != 0 {
		t.Fatalf("rejected candidate still swapped (swaps = %d)", s.Store().Swaps())
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after rejected reload = %q", got)
	}
}

// TestCanaryWarnModePromotesSuspectGraph: the same suspect candidate
// is promoted in warn mode (the default) — findings are logged, not
// fatal — so operators can opt into strictness per deployment.
func TestCanaryWarnModePromotesSuspectGraph(t *testing.T) {
	s := newReloadServer(t, server.Config{VerifyMode: "warn"})
	ts := httptest.NewServer(s)
	defer ts.Close()

	bad := reloadGraph("B")
	bad.AddSubclass("city", "country")
	bad.AddSubclass("country", "city")

	status, body := postReload(t, s, bad)
	if status != http.StatusOK {
		t.Fatalf("/reload status = %d: %s", status, body)
	}
	var rr struct {
		Canary *server.CanaryReport `json:"canary"`
	}
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Canary == nil || !rr.Canary.Promoted || rr.Canary.VerifyErrors == 0 {
		t.Fatalf("canary report = %+v, want promoted with verify errors", rr.Canary)
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisB,EuroB" {
		t.Fatalf("clean after warn-mode reload = %q", got)
	}
}

// TestFaultCanaryShadowReplayRejectsBadCandidate is the pre-promote
// half of the self-healing loop: rows that served fine on the live
// graph are replayed against the candidate; because the candidate
// turns them into quarantines (via the injected similarity fault), the
// reload answers 409 and the serving graph never changes — clients
// see nothing.
func TestFaultCanaryShadowReplayRejectsBadCandidate(t *testing.T) {
	poison := "POISON-KB-CANARY-1"
	defer faultinject.PanicOnValue(poison)()

	s := newReloadServer(t, server.Config{
		RecorderSampleEvery: 1, // record every row for the replay
		MemoDisabled:        true,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Serve rows that are inert on the live graph: "Bob" matches no
	// evidence, so the poisoned Country cell is never evaluated.
	var in strings.Builder
	in.WriteString("Name,City,Country\n")
	for i := 0; i < 16; i++ {
		in.WriteString("Bob,ParisX," + poison + "\n")
	}
	resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/clean status = %d: %s", resp.StatusCode, body)
	}

	status, rbody := postReload(t, s, canaryBadGraph())
	if status != http.StatusConflict {
		t.Fatalf("/reload status = %d: %s", status, rbody)
	}
	if !strings.Contains(rbody, "shadow replay") {
		t.Fatalf("rejection body = %s", rbody)
	}
	if s.Store().Swaps() != 0 {
		t.Fatalf("bad candidate promoted (swaps = %d)", s.Store().Swaps())
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after rejected reload = %q", got)
	}
}

// TestFaultCanaryWatchdogAutoRollback is the post-promote half: with
// the shadow replay disabled, the bad candidate is promoted, live
// traffic starts quarantining, the watchdog detects the bad-row-rate
// regression and rolls the generation back automatically — while every
// client request, including the quarantined ones, still answers 200.
func TestFaultCanaryWatchdogAutoRollback(t *testing.T) {
	poison := "POISON-KB-CANARY-2"
	defer faultinject.PanicOnValue(poison)()

	s := newReloadServer(t, server.Config{
		MemoDisabled:       true,
		CanaryRows:         -1, // skip the replay: let the bad graph through
		CanaryWatch:        5 * time.Second,
		CanaryWatchMinRows: 8,
		MaxConcurrent:      16,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Healthy baseline traffic on the live graph.
	for i := 0; i < 8; i++ {
		if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
			t.Fatalf("baseline clean = %q", got)
		}
	}

	gen, rep, err := s.StageReloadKB(canaryBadGraph(), 0)
	if err != nil || !rep.Promoted {
		t.Fatalf("StageReloadKB = (%d, %+v, %v), want promotion", gen, rep, err)
	}

	// Concurrent clients now hit the bad generation: their Bob rows
	// match evidence and quarantine on the poisoned Country cell. Every
	// request must still answer 200 with the original row echoed.
	row := "Bob,ParisX," + poison
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed []string
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(ts.URL+"/clean", "text/csv",
					strings.NewReader("Name,City,Country\n"+row+"\n"))
				if err != nil {
					mu.Lock()
					failed = append(failed, err.Error())
					mu.Unlock()
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
				if resp.StatusCode != http.StatusOK {
					mu.Lock()
					failed = append(failed, resp.Status+": "+string(body))
					mu.Unlock()
					return
				}
				// Quarantined on the bad graph (original echoed) or fully
				// served after the rollback — never an error, never junk.
				if got := lines[len(lines)-1]; got != row && !strings.HasPrefix(got, "Bob,Paris") {
					mu.Lock()
					failed = append(failed, "bad row: "+got)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(failed) > 0 {
		t.Fatalf("client requests failed during the incident: %v", failed)
	}

	// The watchdog must notice the regression and roll back.
	deadline := time.Now().Add(10 * time.Second)
	for s.Store().Rollbacks() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never rolled back (gen=%d stats=%+v)",
				s.Store().Generation(), s.Store().History())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.Store().Generation() == gen {
		t.Fatal("rollback did not change the served generation")
	}
	// Healed: the original graph serves full repairs again.
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after auto-rollback = %q", got)
	}
}

// TestRollbackHandler: POST /rollback answers 409 with nothing
// retained, then republishes the displaced generation after a reload.
func TestRollbackHandler(t *testing.T) {
	s := newReloadServer(t, server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	h := httptest.NewServer(s.RollbackHandler())
	defer h.Close()

	resp, err := http.Post(h.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("empty-ring rollback status = %d: %s", resp.StatusCode, body)
	}

	if _, _, err := s.StageReloadKB(reloadGraph("B"), 0); err != nil {
		t.Fatalf("StageReloadKB: %v", err)
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisB,EuroB" {
		t.Fatalf("post-reload clean = %q", got)
	}

	resp, err = http.Post(h.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("rollback status = %d: %s", resp.StatusCode, b)
	}
	var rr struct {
		Generation int64        `json:"generation"`
		Rollbacks  int64        `json:"rollbacks"`
		History    []kb.GenInfo `json:"history"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Rollbacks != 1 || len(rr.History) == 0 {
		t.Fatalf("rollback response = %+v", rr)
	}
	if got := cleanOne(t, ts.URL); got != "Alice,ParisA,EuroA" {
		t.Fatalf("clean after rollback = %q", got)
	}

	// GET is rejected.
	gr, err := http.Get(h.URL)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rollback status = %d", gr.StatusCode)
	}
}
