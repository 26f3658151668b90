package registry_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/registry"
	"detective/internal/repair"
	"detective/internal/rules"
	"detective/internal/server"
	"detective/internal/telemetry"
)

const dirtyCSV = `Name,DOB,Country,Prize,Institution,City
Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag
`

// writeFixtures materializes the paper example on disk the way a real
// deployment configures tenants: a DKBS v2 snapshot, a triple-text
// KB, and a rules file. All tenants in these tests share them.
func writeFixtures(t testing.TB) (snapPath, textPath, rulesPath string) {
	t.Helper()
	dir := t.TempDir()
	ex := dataset.NewPaperExample()

	snapPath = filepath.Join(dir, "kb.dkbs")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.KB.WriteSnapshotV2(sf); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	textPath = filepath.Join(dir, "kb.nt")
	tf, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.KB.Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	rulesPath = filepath.Join(dir, "rules.dr")
	rf, err := os.Create(rulesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rules.EncodeRules(rf, ex.Rules); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	return snapPath, textPath, rulesPath
}

var paperSchema = []string{"Name", "DOB", "Country", "Prize", "Institution", "City"}

// fleetConfig builds n tenants (tenant-00 .. tenant-N) sharing the
// fixture sources via Defaults, with residency capped at maxResident.
func fleetConfig(t testing.TB, n, maxResident int) registry.Config {
	t.Helper()
	snap, _, rulesPath := writeFixtures(t)
	cfg := registry.Config{
		MaxResident: maxResident,
		Defaults: registry.TenantConfig{
			Snapshot: snap,
			Rules:    rulesPath,
			Schema:   paperSchema,
			Relation: "Nobel",
		},
	}
	for i := 0; i < n; i++ {
		cfg.Tenants = append(cfg.Tenants, registry.TenantConfig{
			Name: fmt.Sprintf("tenant-%02d", i),
		})
	}
	return cfg
}

func newRegistry(t testing.TB, cfg registry.Config) *registry.Registry {
	t.Helper()
	r, err := registry.New(cfg, registry.Options{Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	snap, _, rulesPath := writeFixtures(t)
	ok := registry.TenantConfig{Snapshot: snap, Rules: rulesPath, Schema: paperSchema}

	cases := []struct {
		name string
		cfg  registry.Config
		want string
	}{
		{"no tenants", registry.Config{}, "no tenants"},
		{"bad name", registry.Config{
			Defaults: ok,
			Tenants:  []registry.TenantConfig{{Name: "a/b"}},
		}, "invalid tenant name"},
		{"empty name", registry.Config{
			Defaults: ok,
			Tenants:  []registry.TenantConfig{{}},
		}, "invalid tenant name"},
		{"duplicate", registry.Config{
			Defaults: ok,
			Tenants:  []registry.TenantConfig{{Name: "a"}, {Name: "a"}},
		}, "duplicate tenant"},
		{"no kb", registry.Config{
			Tenants: []registry.TenantConfig{{Name: "a", Rules: rulesPath, Schema: paperSchema}},
		}, "no KB source"},
		{"no rules", registry.Config{
			Tenants: []registry.TenantConfig{{Name: "a", Snapshot: snap, Schema: paperSchema}},
		}, "no rules"},
		{"no schema", registry.Config{
			Tenants: []registry.TenantConfig{{Name: "a", Snapshot: snap, Rules: rulesPath}},
		}, "no schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := registry.New(tc.cfg, registry.Options{Metrics: telemetry.NewRegistry()})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestLoadConfigFile(t *testing.T) {
	snap, _, rulesPath := writeFixtures(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	doc := map[string]any{
		"maxResident": 2,
		"defaults": map[string]any{
			"snapshot": snap,
			"rules":    rulesPath,
			"schema":   paperSchema,
			"relation": "Nobel",
		},
		"tenants": []map[string]any{
			{"name": "alpha"},
			{"name": "beta", "maxConcurrent": 3},
		},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := registry.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	r := newRegistry(t, *cfg)
	if got := r.TenantNames(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("TenantNames = %v", got)
	}
	if r.MaxResident() != 2 {
		t.Fatalf("MaxResident = %d", r.MaxResident())
	}

	if _, err := registry.LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := registry.LoadConfig(bad); err == nil {
		t.Fatal("malformed JSON: want error")
	}
}

func TestUnknownTenant(t *testing.T) {
	r := newRegistry(t, fleetConfig(t, 2, 2))
	_, _, err := r.Tenant("nope")
	if !strings.Contains(fmt.Sprint(err), "unknown tenant") {
		t.Fatalf("err = %v", err)
	}
}

func TestTextKBSource(t *testing.T) {
	_, text, rulesPath := writeFixtures(t)
	r := newRegistry(t, registry.Config{
		Tenants: []registry.TenantConfig{{
			Name: "texty", KBText: text, Rules: rulesPath,
			Schema: paperSchema, Relation: "Nobel",
		}},
	})
	cleanTenant(t, httptest.NewServer(server.NewTenantMux(r, nil)), "texty")
}

// cleanTenant posts the dirty paper tuple to one tenant and asserts
// the repair came back. The httptest server is closed here.
func cleanTenant(t *testing.T, ts *httptest.Server, tenant string) {
	t.Helper()
	defer ts.Close()
	body := postClean(t, ts.URL, tenant)
	if !strings.Contains(body, "Haifa+") {
		t.Fatalf("tenant %s: City not repaired:\n%s", tenant, body)
	}
}

func postClean(t *testing.T, base, tenant string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/"+tenant+"/clean?marked=1", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant %s: status %d: %s", tenant, resp.StatusCode, b)
	}
	return string(b)
}

// TestLRUChurn is the acceptance scenario: 64 configured tenants, a
// residency cap of 8, interleaved concurrent traffic — evictions and
// cold readmissions happen constantly while requests are in flight.
// Run under -race.
func TestLRUChurn(t *testing.T) {
	const (
		tenants  = 64
		cap      = 8
		workers  = 16
		requests = 12 // per worker
	)
	cfg := fleetConfig(t, tenants, cap)
	r := newRegistry(t, cfg)
	ts := httptest.NewServer(server.NewTenantMux(r, nil))
	defer ts.Close()

	var wg sync.WaitGroup
	var served atomic.Int64
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requests; i++ {
				name := fmt.Sprintf("tenant-%02d", rng.Intn(tenants))
				resp, err := http.Post(ts.URL+"/v1/"+name+"/clean?marked=1", "text/csv", strings.NewReader(dirtyCSV))
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("tenant %s: status %d: %s", name, resp.StatusCode, body)
					return
				}
				if !strings.Contains(string(body), "Haifa+") {
					errc <- fmt.Errorf("tenant %s: bad repair:\n%s", name, body)
					return
				}
				served.Add(1)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := served.Load(); got != workers*requests {
		t.Fatalf("served %d of %d requests", got, workers*requests)
	}

	st := r.Stats()
	if st.Configured != tenants || st.MaxResident != cap {
		t.Fatalf("stats = %+v", st)
	}
	if st.Resident > cap {
		t.Fatalf("resident = %d > cap %d after traffic drained", st.Resident, cap)
	}
	var admissions, evictions, reqs int64
	for _, tn := range st.Tenants {
		admissions += tn.Admissions
		evictions += tn.Evictions
		reqs += tn.Requests
		if tn.Pins != 0 {
			t.Errorf("tenant %s: %d pins leaked", tn.Name, tn.Pins)
		}
	}
	if reqs != workers*requests {
		t.Fatalf("request counters sum to %d, want %d", reqs, workers*requests)
	}
	// 16 workers spraying 64 tenants through 8 slots must churn: far
	// more admissions than could ever stay resident.
	if admissions <= int64(cap) {
		t.Fatalf("admissions = %d; expected churn beyond the %d-slot cap", admissions, cap)
	}
	if evictions < admissions-int64(cap) {
		t.Fatalf("evictions = %d, admissions = %d: eviction accounting broken", evictions, admissions)
	}
	// Every admission loaded the one shared snapshot; the process maps
	// each snapshot version once, however often it is re-admitted.
	if runtime.GOOS == "linux" && runtime.GOARCH == "amd64" {
		if n := mapsLines(t, cfg.Defaults.Snapshot); n != 1 {
			t.Errorf("after %d admissions the shared snapshot is mapped %d times, want 1", admissions, n)
		}
	}
}

// mapsLines counts the lines of /proc/self/maps that map path.
func mapsLines(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatalf("reading /proc/self/maps: %v", err)
	}
	path, err = filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, " "+path) {
			n++
		}
	}
	return n
}

func TestEvictionSkipsPinnedTenants(t *testing.T) {
	r := newRegistry(t, fleetConfig(t, 4, 2))

	// Pin two tenants resident.
	_, rel0, err := r.Tenant("tenant-00")
	if err != nil {
		t.Fatal(err)
	}
	_, rel1, err := r.Tenant("tenant-01")
	if err != nil {
		t.Fatal(err)
	}

	// A third admission exceeds the cap; both residents are pinned, so
	// neither may be evicted — residency transiently exceeds the cap.
	_, rel2, err := r.Tenant("tenant-02")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Resident; got != 3 {
		t.Fatalf("resident = %d, want 3 (cap exceeded, all pinned)", got)
	}
	rel0()
	rel1()
	rel2()
	rel2() // release is idempotent

	// The next admission evicts down to the cap: tenant-00 is the LRU
	// victim (then possibly tenant-01), and pinned counts are zero.
	_, rel3, err := r.Tenant("tenant-03")
	if err != nil {
		t.Fatal(err)
	}
	defer rel3()
	st := r.Stats()
	if st.Resident > 2 {
		t.Fatalf("resident = %d, want <= cap 2 after unpinned eviction", st.Resident)
	}
	for _, tn := range st.Tenants {
		if tn.Name == "tenant-00" && tn.Resident {
			t.Fatal("LRU tenant-00 still resident after eviction pass")
		}
		if tn.Name == "tenant-03" && !tn.Resident {
			t.Fatal("just-admitted tenant-03 not resident")
		}
	}
}

func TestReadmissionAfterEviction(t *testing.T) {
	r := newRegistry(t, fleetConfig(t, 3, 1))
	ts := httptest.NewServer(server.NewTenantMux(r, nil))
	defer ts.Close()

	// Serve each tenant twice round-robin with cap 1: every request
	// after the first for a tenant is a cold readmission.
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("tenant-%02d", i)
			if body := postClean(t, ts.URL, name); !strings.Contains(body, "Haifa+") {
				t.Fatalf("round %d tenant %s: bad repair:\n%s", round, name, body)
			}
		}
	}
	st := r.Stats()
	if st.Resident != 1 {
		t.Fatalf("resident = %d, want 1", st.Resident)
	}
	var admissions int64
	for _, tn := range st.Tenants {
		admissions += tn.Admissions
	}
	if admissions != 6 {
		t.Fatalf("admissions = %d, want 6 (every request readmits under cap 1)", admissions)
	}
}

func TestWarm(t *testing.T) {
	r := newRegistry(t, fleetConfig(t, 6, 3))
	if err := r.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Resident; got != 3 {
		t.Fatalf("resident after Warm = %d, want 3 (cap)", got)
	}
	if err := r.Warm("no-such-tenant"); err == nil {
		t.Fatal("Warm(unknown) should report the error")
	}
}

func TestTenantAdminReloadAndRollback(t *testing.T) {
	r := newRegistry(t, fleetConfig(t, 2, 2))
	ts := httptest.NewServer(server.NewTenantAdminMux(r, nil))
	defer ts.Close()

	// Reload re-reads the configured snapshot through the canary.
	resp, err := http.Post(ts.URL+"/v1/tenant-00/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}

	// And the reloaded tenant still serves correct repairs.
	if out := postClean(t, ts.URL, "tenant-00"); !strings.Contains(out, "Haifa+") {
		t.Fatalf("post-reload repair:\n%s", out)
	}

	// Rollback returns to the retained pre-reload generation.
	resp, err = http.Post(ts.URL+"/v1/tenant-00/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback status %d: %s", resp.StatusCode, body)
	}
}

// TestDrainUnreadiesTenants: after the drain switch, /v1/{t}/readyz
// answers 503 "draining" for a tenant resident at the switch, for one
// admitted after it and for ones admitted concurrently with it, while
// /clean keeps serving in-flight work.
func TestDrainUnreadiesTenants(t *testing.T) {
	r := newRegistry(t, fleetConfig(t, 4, 4))
	ts := httptest.NewServer(server.NewTenantMux(r, nil))
	defer ts.Close()
	readyz := func(tenant string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/" + tenant + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := readyz("tenant-00"); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d: %s", code, body)
	}
	var wg sync.WaitGroup
	for _, tenant := range []string{"tenant-02", "tenant-03"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, release, err := r.Tenant(tenant)
			if err != nil {
				t.Error(err)
				return
			}
			release()
		}()
	}
	r.Drain()
	wg.Wait()
	for _, tenant := range []string{"tenant-00", "tenant-01", "tenant-02", "tenant-03"} {
		code, body := readyz(tenant)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
			t.Fatalf("%s readyz after drain = %d: %s, want 503 draining", tenant, code, body)
		}
	}
	if out := postClean(t, ts.URL, "tenant-00"); !strings.Contains(out, "Haifa+") {
		t.Fatalf("clean while draining:\n%s", out)
	}
}

func TestReloadResident(t *testing.T) {
	r := newRegistry(t, fleetConfig(t, 4, 2))
	if err := r.Warm("tenant-00", "tenant-01"); err != nil {
		t.Fatal(err)
	}
	if err := r.ReloadResident(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Resident != 2 {
		t.Fatalf("resident = %d after ReloadResident", st.Resident)
	}
	for _, tn := range st.Tenants {
		if tn.Resident && tn.Generation < 2 {
			t.Fatalf("tenant %s generation = %d, want bumped by reload", tn.Name, tn.Generation)
		}
		if tn.Pins != 0 {
			t.Fatalf("tenant %s: %d pins leaked by ReloadResident", tn.Name, tn.Pins)
		}
	}
}

func TestAdmissionFailureIs503(t *testing.T) {
	snap, _, rulesPath := writeFixtures(t)
	r := newRegistry(t, registry.Config{
		Tenants: []registry.TenantConfig{
			{Name: "good", Snapshot: snap, Rules: rulesPath, Schema: paperSchema, Relation: "Nobel"},
			{Name: "broken", Snapshot: filepath.Join(t.TempDir(), "missing.dkbs"),
				Rules: rulesPath, Schema: paperSchema, Relation: "Nobel"},
		},
	})
	ts := httptest.NewServer(server.NewTenantMux(r, nil))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/broken/clean", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("503 body is not the JSON envelope: %v", err)
	}
	if env.Error.Status != http.StatusServiceUnavailable {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestApplyConfig(t *testing.T) {
	cfg := fleetConfig(t, 3, 2)
	r := newRegistry(t, cfg)
	if err := r.Warm("tenant-00", "tenant-01"); err != nil {
		t.Fatal(err)
	}

	// Reshape the fleet: drop tenant-02, add tenant-99, edit
	// tenant-01's concurrency, raise the residency cap.
	next := cfg
	next.MaxResident = 3
	next.Tenants = append([]registry.TenantConfig(nil), cfg.Tenants[:2]...)
	next.Tenants[1].MaxConcurrent = 7
	next.Tenants = append(next.Tenants, registry.TenantConfig{Name: "tenant-99"})
	if err := r.ApplyConfig(next); err != nil {
		t.Fatal(err)
	}

	names := r.TenantNames()
	want := []string{"tenant-00", "tenant-01", "tenant-99"}
	if len(names) != len(want) {
		t.Fatalf("TenantNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("TenantNames = %v, want %v", names, want)
		}
	}
	if got := r.MaxResident(); got != 3 {
		t.Fatalf("MaxResident = %d, want 3", got)
	}

	st := r.Stats()
	for _, tn := range st.Tenants {
		switch tn.Name {
		case "tenant-00":
			if !tn.Resident {
				t.Fatal("unchanged tenant-00 lost residency across ApplyConfig")
			}
		case "tenant-01":
			if tn.Resident {
				t.Fatal("edited tenant-01 should be rebuilt cold on next admission")
			}
		}
	}

	// Removed, edited and added tenants behave accordingly.
	if _, _, err := r.Tenant("tenant-02"); !errors.Is(err, server.ErrUnknownTenant) {
		t.Fatalf("removed tenant-02: err = %v, want ErrUnknownTenant", err)
	}
	for _, name := range []string{"tenant-01", "tenant-99"} {
		_, release, err := r.Tenant(name)
		if err != nil {
			t.Fatalf("tenant %s after ApplyConfig: %v", name, err)
		}
		release()
	}

	// A bad config changes nothing.
	if err := r.ApplyConfig(registry.Config{}); err == nil {
		t.Fatal("ApplyConfig(empty) should fail")
	}
	if got := len(r.TenantNames()); got != 3 {
		t.Fatalf("fleet size after rejected config = %d, want 3", got)
	}
}

// TestMemoSeriesPerTenant: a tenant's memo series sit in the
// registry's metrics under its tenant label, so the tenant built last
// does not take them over. tenant-00 serves the paper row three times
// (the doorkeeper declines it, the memo admits it, then serves it: one
// hit) before tenant-01 is admitted.
func TestMemoSeriesPerTenant(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, err := registry.New(fleetConfig(t, 2, 2), registry.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv, release, err := r.Tenant("tenant-00")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/clean", strings.NewReader(dirtyCSV)))
		if rec.Code != http.StatusOK {
			t.Fatalf("clean %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	release()
	if _, release, err = r.Tenant("tenant-01"); err != nil {
		t.Fatal(err)
	}
	release()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for _, want := range []string{
		`detective_memo_hits_total{tenant="tenant-00",tier="tuple"} 1`,
		`detective_memo_entries{tenant="tenant-00",tier="tuple"} 1`,
		`detective_memo_hits_total{tenant="tenant-01",tier="tuple"} 0`,
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("registry exposition lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestTenantsSharingRulesStayApart serves two tenants whose snapshots
// carry the same generation with different IDs for the rules' classes
// and relations (B is A with Avram Hershko renamed Ada Yonath, parsed
// in reverse line order), from one rules file through one residency
// slot, admitting them alternately. Each must repair the row only its
// own KB can repair and leave the other's alone, as an engine built on
// that KB alone does; two engines on one compiled rule set must too.
// A symbol resolution or candidate cache shared across engines and
// keyed by generation would hand one tenant the other's IDs.
func TestTenantsSharingRulesStayApart(t *testing.T) {
	_, textPath, rulesPath := writeFixtures(t)
	textA, err := os.ReadFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(strings.ReplaceAll(string(textA), "<Avram Hershko>", "<Ada Yonath>")), "\n")
	slices.Reverse(lines)
	textB := strings.Join(lines, "\n") + "\n"

	dir := t.TempDir()
	graphs := map[string]*kb.Graph{}
	cfg := registry.Config{
		MaxResident: 1,
		Defaults:    registry.TenantConfig{Rules: rulesPath, Schema: paperSchema, Relation: "Nobel"},
	}
	for name, text := range map[string]string{"a": string(textA), "b": textB} {
		g, err := kb.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".dkbs")
		var snap bytes.Buffer
		if err := g.WriteSnapshotV2(&snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if graphs[name], err = kb.LoadSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		cfg.Tenants = append(cfg.Tenants, registry.TenantConfig{Name: name, Snapshot: path})
	}
	ga, gb := graphs["a"], graphs["b"]
	if ga.Generation() != gb.Generation() {
		t.Fatalf("generations %d and %d differ; the test needs them equal", ga.Generation(), gb.Generation())
	}
	if ga.Lookup("city") == gb.Lookup("city") && ga.Lookup("worksAt") == gb.Lookup("worksAt") {
		t.Fatal("the two KBs give the rules' symbols the same IDs; the test needs them to differ")
	}

	ex := dataset.NewPaperExample()
	header := strings.Join(paperSchema, ",") + "\n"
	rowA := strings.TrimPrefix(dirtyCSV, header)
	rows := map[string]string{"a": rowA, "b": strings.Replace(rowA, "Avram Hershko", "Ada Yonath", 1)}
	body := header + rows["a"] + rows["b"]
	want := map[string]string{}
	rs, err := repair.CompileRules(ex.Rules, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range graphs {
		e, err := repair.NewEngine(ex.Rules, g, ex.Schema)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := e.CleanCSVStream(strings.NewReader(body), &out, true); err != nil {
			t.Fatal(err)
		}
		want[name] = out.String()
		own, other := rows[name], rows[map[string]string{"a": "b", "b": "a"}[name]]
		if strings.Contains(want[name], own) || !strings.Contains(want[name], other) {
			t.Fatalf("KB %s should repair only its own row:\n%s", name, want[name])
		}
		var shared bytes.Buffer
		if _, err := repair.NewEngineRules(rs, kb.NewStore(g), repair.Options{}).CleanCSVStream(strings.NewReader(body), &shared, true); err != nil {
			t.Fatal(err)
		}
		if shared.String() != want[name] {
			t.Fatalf("KB %s, engine on a shared compiled rule set:\n%s\nwant:\n%s", name, shared.String(), want[name])
		}
	}

	r := newRegistry(t, cfg)
	for round := 0; round < 3; round++ {
		for _, name := range []string{"a", "b"} {
			srv, release, err := r.Tenant(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/clean?marked=1", strings.NewReader(body)))
			release()
			if got := rec.Body.String(); got != want[name] {
				t.Fatalf("round %d, tenant %s:\n%s\nwant:\n%s", round, name, got, want[name])
			}
		}
	}
	if st := r.Stats(); st.Tenants[0].Admissions != 3 || st.Tenants[1].Admissions != 3 {
		t.Fatalf("admissions %d and %d, want 3 each (cold every time)", st.Tenants[0].Admissions, st.Tenants[1].Admissions)
	}
}
