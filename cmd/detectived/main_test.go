package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"detective/internal/kb"
	"detective/internal/registry"
	"detective/internal/relation"
	"detective/internal/rules"
	"detective/internal/server"
	"detective/internal/telemetry"
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestReloadLoopServicesSIGHUP: a signal delivered while the server is
// up triggers exactly one reload.
func TestReloadLoopServicesSIGHUP(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hup := make(chan os.Signal, 1)
	var reloads atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		reloadLoop(ctx, hup, discardLog(), func() error {
			reloads.Add(1)
			return nil
		})
	}()

	hup <- syscall.SIGHUP
	deadline := time.After(2 * time.Second)
	for reloads.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("SIGHUP not serviced")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reloadLoop did not exit on cancel")
	}
	if got := reloads.Load(); got != 1 {
		t.Fatalf("reloads = %d, want 1", got)
	}
}

// TestReloadLoopIgnoresSIGHUPDuringDrain pins the shutdown race fix: a
// SIGHUP that arrives after the drain has begun (ctx cancelled) must
// not start a reload, even when the signal was already queued before
// the loop observed the cancellation.
func TestReloadLoopIgnoresSIGHUPDuringDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	hup := make(chan os.Signal, 1)
	var reloads atomic.Int64

	// Queue the signal first, then cancel, then start the loop: both
	// select arms are ready on entry, so whichever the runtime picks,
	// the ctx.Err() re-check must keep the reload from running.
	hup <- syscall.SIGHUP
	cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		reloadLoop(ctx, hup, discardLog(), func() error {
			reloads.Add(1)
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reloadLoop did not exit while draining")
	}
	if got := reloads.Load(); got != 0 {
		t.Fatalf("reloads = %d during drain, want 0", got)
	}
}

// TestReloadLoopExitsOnClosedChannel: signal.Stop closing the flow of
// signals must not leave the loop spinning.
func TestReloadLoopExitsOnClosedChannel(t *testing.T) {
	hup := make(chan os.Signal)
	close(hup)
	done := make(chan struct{})
	go func() {
		defer close(done)
		reloadLoop(context.Background(), hup, discardLog(), func() error { return nil })
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reloadLoop did not exit on closed channel")
	}
}

// TestKBSnapshotV1Exits: a -kb-snapshot file in the retired DKBS v1
// layout stops the daemon at boot with a non-zero exit and the re-pack
// hint. The test re-runs its own binary as the daemon.
func TestKBSnapshotV1Exits(t *testing.T) {
	if snap := os.Getenv("DETECTIVED_V1_SNAPSHOT"); snap != "" {
		os.Args = []string{"detectived", "-kb-snapshot", snap, "-rules", "unused.dr", "-schema", "Name"}
		main()
		return
	}
	snap := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(snap, []byte("DKBS\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestKBSnapshotV1Exits$")
	cmd.Env = append(os.Environ(), "DETECTIVED_V1_SNAPSHOT="+snap)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("daemon with a v1 snapshot: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "re-pack") {
		t.Fatalf("output lacks the re-pack hint:\n%s", out)
	}
}

// cleanResponse is one /clean answer: status, body and X-Clean-*
// trailers.
type cleanResponse struct {
	status   int
	body     string
	trailers map[string]string
}

func postCleanCSV(t *testing.T, url string, csv []byte) cleanResponse {
	t.Helper()
	resp, err := http.Post(url, "text/csv", strings.NewReader(string(csv)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	cr := cleanResponse{status: resp.StatusCode, body: string(body), trailers: map[string]string{}}
	for k, v := range resp.Trailer {
		if strings.HasPrefix(k, "X-Clean-") {
			cr.trailers[k] = strings.Join(v, ",")
		}
	}
	return cr
}

// TestFlagModeServesDefaultTenant: the flag-mode configuration is a
// registry of one tenant, "default". Its /clean and /v1/default/clean
// answer with identical bodies and X-Clean-* trailers (ensemble
// requests included), and plain /clean matches a server built directly
// on the same KB, rules and schema, the way flag mode used to be wired.
func TestFlagModeServesDefaultTenant(t *testing.T) {
	ff := fleetFlags{
		kb:          "../../testdata/sample_kb.nt",
		rules:       "../../testdata/e2e/rules.dr",
		schema:      "Name, Prize, Institution, City",
		relation:    "Nobel",
		ensemble:    true,
		ensembleRef: "../../testdata/e2e/ref.csv",
	}
	cfg, err := ff.config()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(*cfg, registry.Options{Logger: discardLog(), Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Warm(server.DefaultTenant); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewTenantMux(reg, discardLog()))
	defer ts.Close()

	dirty, err := os.ReadFile("../../testdata/e2e/dirty.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"", "?ensemble=1"} {
		root := postCleanCSV(t, ts.URL+"/clean"+query, dirty)
		prefixed := postCleanCSV(t, ts.URL+"/v1/default/clean"+query, dirty)
		if root.status != http.StatusOK || root.trailers["X-Clean-Rows"] != "2" {
			t.Fatalf("/clean%s = %d, trailers %v:\n%s", query, root.status, root.trailers, root.body)
		}
		if !reflect.DeepEqual(prefixed, root) {
			t.Fatalf("/v1/default/clean%s differs from /clean%s:\n%+v\nvs\n%+v", query, query, prefixed, root)
		}
		if query == "" && !strings.Contains(root.body, "Back Dromzais,Cist Prize in Chemistry,Jastrea Research Institute,Sturhaven") {
			t.Fatalf("/clean did not repair City:\n%s", root.body)
		}
	}

	// The same triple served directly by one server.
	f, err := os.Open(ff.kb)
	if err != nil {
		t.Fatal(err)
	}
	g, err := kb.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(ff.rules)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.ParseRules(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	schema := relation.NewSchema("Nobel", "Name", "Prize", "Institution", "City")
	direct, err := server.NewWithConfig(rs, g, schema, server.Config{Logger: discardLog(), Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(direct)
	defer dts.Close()
	want := postCleanCSV(t, dts.URL+"/clean", dirty)
	if got := postCleanCSV(t, ts.URL+"/clean", dirty); !reflect.DeepEqual(got, want) {
		t.Fatalf("flag mode /clean differs from a direct server:\n%+v\nvs\n%+v", got, want)
	}

	resp, err := http.Get(ts.URL + "/v1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx struct {
		Tenants []string `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Tenants) != 1 || idx.Tenants[0] != server.DefaultTenant {
		t.Fatalf("GET /v1 tenants = %v, want [default]", idx.Tenants)
	}
}
