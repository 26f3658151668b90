package server_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"detective/internal/dataset"
	"detective/internal/server"
	"detective/internal/telemetry"
)

// newMetricsServer builds a server over its own registry so counter
// assertions are not polluted by other tests sharing the default
// registry. (Engine-level repair metrics still go to the default
// registry; the HTTP and cache layers are what this file asserts on.)
func newMetricsServer(t *testing.T) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	ex := dataset.NewPaperExample()
	reg := telemetry.NewRegistry()
	s, err := server.NewWithConfig(ex.Rules, ex.KB, ex.Schema, server.Config{
		Metrics: reg,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, reg
}

func TestRequestIDHeader(t *testing.T) {
	ts, _ := newMetricsServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get(telemetry.RequestIDHeader)
	if len(id) != 16 {
		t.Fatalf("X-Request-ID = %q, want 16 hex digits", id)
	}
}

func TestPerRouteMetrics(t *testing.T) {
	ts, reg := newMetricsServer(t)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	clean := reg.Counter("detective_http_requests_total", "",
		telemetry.Label{Name: "route", Value: "/clean"},
		telemetry.Label{Name: "code", Value: "200"})
	if got := clean.Value(); got != 2 {
		t.Fatalf("/clean 200 counter = %d, want 2", got)
	}
	lat := reg.Histogram("detective_http_request_seconds", "", nil,
		telemetry.Label{Name: "route", Value: "/clean"})
	if got := lat.Count(); got != 2 {
		t.Fatalf("/clean latency observations = %d, want 2", got)
	}
	if got := reg.Gauge("detective_http_in_flight", "").Value(); got != 0 {
		t.Fatalf("in-flight = %v, want 0", got)
	}
}

func TestShedCounter(t *testing.T) {
	ex := dataset.NewPaperExample()
	reg := telemetry.NewRegistry()
	s, err := server.NewWithConfig(ex.Rules, ex.KB, ex.Schema, server.Config{
		MaxConcurrent: 1,
		Metrics:       reg,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Hold the single slot with a request whose body never finishes,
	// then observe the next request being shed.
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		pw.Write([]byte("Name,DOB,Country,Prize,Institution,City\n"))
		// keep the pipe open: the request stays in flight
	}()
	req, _ := http.NewRequest("POST", ts.URL+"/clean", pr)
	req.Header.Set("Content-Type", "text/csv")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until the slot is taken (in-flight gauge reaches 1).
	landed := false
	for i := 0; i < 400; i++ {
		if reg.Gauge("detective_http_in_flight", "").Value() >= 1 {
			landed = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !landed {
		t.Fatal("first request never landed")
	}

	resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if got := reg.Counter("detective_http_shed_total", "").Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	shed := reg.Counter("detective_http_requests_total", "",
		telemetry.Label{Name: "route", Value: "/clean"},
		telemetry.Label{Name: "code", Value: "429"})
	if got := shed.Value(); got != 1 {
		t.Fatalf("429 counter = %d, want 1", got)
	}
	pw.CloseWithError(io.ErrClosedPipe)
	<-done
}

func TestBodyTooLargeCounter(t *testing.T) {
	ex := dataset.NewPaperExample()
	reg := telemetry.NewRegistry()
	s, err := server.NewWithConfig(ex.Rules, ex.KB, ex.Schema, server.Config{
		MaxBodyBytes: 128,
		Metrics:      reg,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	big := dirtyCSV + strings.Repeat("x", 4096)
	resp, err := http.Post(ts.URL+"/explain", "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if got := reg.Counter("detective_http_body_too_large_total", "").Value(); got != 1 {
		t.Fatalf("too-large counter = %d, want 1", got)
	}
}

// TestMetricsExposition drives real traffic through the server, then
// scrapes the registry the way the ops listener would and validates
// the whole exposition — the `make metrics-check` entry point.
func TestMetricsExposition(t *testing.T) {
	ts, reg := newMetricsServer(t)
	resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ops := httptest.NewServer(telemetry.NewOpsMux(reg))
	defer ops.Close()
	mr, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if n == 0 {
		t.Fatal("no samples in exposition")
	}
	for _, want := range []string{
		`detective_http_requests_total{code="200",route="/clean"}`,
		"detective_http_request_seconds_bucket",
		"detective_http_in_flight",
		"detective_catalog_cache_hits_total",
		"detective_catalog_cache_misses_total",
		"detective_similarity_index_hits_total",
		"detective_similarity_index_size",
		"detective_http_shed_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The default registry carries the engine's repair and memo
	// metrics (the engine always instruments process-wide); a full
	// detectived ops scrape includes both.
	var dbuf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&dbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(bytes.NewReader(dbuf.Bytes())); err != nil {
		t.Fatalf("default registry exposition does not parse: %v", err)
	}
	for _, want := range []string{
		"detective_repair_tuples_total",
		`detective_memo_hits_total{tier="tuple"}`,
		`detective_memo_misses_total{tier="tuple"}`,
		`detective_memo_declined_total{tier="tuple"}`,
		`detective_memo_evictions_total{reason="capacity",tier="tuple"}`,
		`detective_memo_evictions_total{reason="generation",tier="tuple"}`,
		`detective_memo_bytes{tier="tuple"}`,
		`detective_memo_entries{tier="tuple"}`,
	} {
		if !bytes.Contains(dbuf.Bytes(), []byte(want)) {
			t.Errorf("default registry missing %q", want)
		}
	}
}
