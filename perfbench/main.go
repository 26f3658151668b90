// Command perfbench is the end-to-end benchmark of detectived. For one
// workload and seed it generates the inputs, starts the detectived
// binary as a child process with its default flags, drives the
// workload over loopback HTTP, checks every answer, and prints its
// metrics. With -trace 1 it instead reports per-layer metrics: the
// child's own counters across a fixed-size load phase, plus an
// in-process replay of the same inputs through each layer's public
// functions with a span around every call.
//
//	perfbench -workload clean-zipf -seed 1 -seconds 10 -trace 0 \
//	    -detectived .bench_build/bin/detectived
//
// The last line of standard output is the result as one JSON object;
// the lines before it are the run record and the full report. See
// README.md for the metrics and workloads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloadSpec defines one workload's traffic.
type workloadSpec struct {
	name     string
	registry bool
	clients  int // closed-loop clients
	warmup   int // untimed requests before the window
	counted  int // trace run: requests in its fixed-size load phase
	// rssAt is the number of window requests after which peak_rss_mb is
	// read, so the figure covers a fixed amount of work whatever the
	// box's speed. It is about a third of a slow run's requests.
	rssAt int
}

// readyPath is what setup waits for. The registry's tenant mux has no
// /readyz of its own and admits tenants lazily, so registry mode waits
// for the hot tenant's /readyz, which admits it.
func (w *workloadSpec) readyPath() string {
	if w.registry {
		return "/v1/" + tenantName(0) + "/readyz"
	}
	return "/readyz"
}

var workloads = []*workloadSpec{
	{name: "clean-cold", clients: 2, warmup: 8, counted: 240, rssAt: 500},
	{name: "clean-zipf", clients: 2, warmup: 32, counted: 256, rssAt: 4000},
	{name: "tenant-churn", registry: true, clients: 1, warmup: 2 * (numTenants - 1), counted: 140, rssAt: 1000},
}

const (
	setupReps  = 9               // child starts per run; setup_s is their median
	promoteFor = 3 * time.Second // back-to-back promotions after the window
)

// contractMetrics are the end-to-end metrics of the result line, the
// ones BENCHMARK.json bounds. The rest of the end-to-end figures go to
// the report line: on the reference box their run-to-run spread exceeds
// the largest bound the contract allows (see README.md, Steadiness).
var contractMetrics = []string{"setup_s", "clean_ms_p50", "peak_rss_mb"}

var (
	mu      sync.Mutex
	running *child // stopped on SIGINT/SIGTERM
)

func main() {
	workload := flag.String("workload", "", "workload name: clean-cold, clean-zipf, tenant-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed window length")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("detectived", ".bench_build/bin/detectived", "detectived binary")
	work := flag.String("workdir", ".bench_build/work", "directory for generated inputs, logs and spans")
	flag.Parse()

	var w *workloadSpec
	for _, c := range workloads {
		if c.name == *workload {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		mu.Lock()
		running.stop()
		os.Exit(1)
	}()

	r := &run{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, bin: *bin}
	var err error
	if r.dir, err = filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d-t%d", w.name, *seed, *trace))); err == nil {
		err = r.execute()
	}
	mu.Lock()
	if stopErr := running.stop(); err == nil {
		err = stopErr
	}
	running = nil
	mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	r.print()
}

// run is one invocation: one workload, one seed, traced or not.
type run struct {
	w      *workloadSpec
	seed   int64
	window time.Duration
	trace  bool
	bin    string
	dir    string
	in     *inputs

	attempted, failed int
	failures          []string
	drift             []string // counts that moved since an earlier run
	report            metrics  // every metric measured, including diagnostics
	out               metrics  // the contract's metrics for this kind of run
	record            map[string]any
}

func (r *run) fail(reason string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, reason)
	}
}

// load is what the child-driven part of a run observed.
type load struct {
	samples    []sample
	wall       time.Duration
	promos     []promotion
	setups     []float64
	before     *scrape
	after      *scrape
	rssMB      float64
	oracle     oracleResult
	childFlags []string
}

func (r *run) execute() error {
	var err error
	if r.in, err = generate(r.w, r.seed, r.dir); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	ld, err := r.drive()
	if err != nil {
		return err
	}
	r.report = metrics{}
	r.e2e(ld)
	if r.trace {
		if err := r.layers(ld); err != nil {
			return err
		}
	}
	r.makeRecord(ld)
	return nil
}

// drive starts the child (setupReps times, keeping the last), warms it
// up, runs the load phase and the promotions, scrapes it, and stops it.
func (r *run) drive() (*load, error) {
	ld := &load{}
	reps := setupReps
	if r.trace {
		reps = 1
	}
	var c *child
	for i := 0; i < reps; i++ {
		var setup time.Duration
		var err error
		c, setup, err = startChild(r.bin, r.w, r.in, filepath.Join(r.dir, "detectived.log"))
		if err != nil {
			return nil, err
		}
		mu.Lock()
		running = c
		mu.Unlock()
		ld.setups = append(ld.setups, setup.Seconds())
		if i < reps-1 {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
	}
	ld.childFlags = c.args
	base, opsBase := "http://"+c.addr, "http://"+c.opsAddr
	hc := newClient(r.w.clients)
	ops := newClient(1)
	defer hc.CloseIdleConnections()
	defer ops.CloseIdleConnections()
	delta, err := os.ReadFile(r.in.deltaPath)
	if err != nil {
		return nil, err
	}
	prefix := ""
	if r.w.registry {
		prefix = "/v1/" + tenantName(0)
	}
	resp := newResponses()

	// Warm-up: caches fill and lazy set-up finishes before timing.
	warm, _ := closedLoop(hc, base, r.in.reqs, r.w.clients, 0, loadPlan{count: r.w.warmup}, resp)
	r.tally(warm)

	if ld.before, err = c.scrape(r.w, hc); err != nil {
		return nil, fmt.Errorf("scraping before the window: %w", err)
	}
	// The peak resident set covers start-up, warm-up and the window's
	// first rssAt requests (a traced run's whole load phase), not the
	// promotions that follow. A fixed amount of work matters because
	// the registry keeps every admitted snapshot mapped, so in
	// tenant-churn the figure grows with each admission.
	var rssErr error
	plan := loadPlan{dur: r.window, at: r.w.rssAt, mark: func() { ld.rssMB, rssErr = c.peakRSSMB() }}
	if r.trace {
		plan = loadPlan{count: r.w.counted}
	}
	ld.samples, ld.wall = closedLoop(hc, base, r.in.reqs, r.w.clients, r.w.warmup, plan, resp)
	r.tally(ld.samples)
	if ld.after, err = c.scrape(r.w, hc); err != nil {
		return nil, fmt.Errorf("scraping after the window: %w", err)
	}
	if r.trace {
		ld.rssMB, rssErr = c.peakRSSMB()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	// Idle promotions after the window, back to back for promoteFor:
	// every workload reports the cost of a KB change on the traffic it
	// served. Spreading them over seconds, not a burst, averages out the
	// shared box's speed drift.
	stop := make(chan struct{})
	time.AfterFunc(promoteFor, func() { close(stop) })
	ld.promos = operator(ops, opsBase, prefix, delta, stop)
	for _, p := range ld.promos {
		r.attempted++
		if p.fail != "" {
			r.fail(p.fail)
		}
	}
	if err := c.stop(); err != nil {
		return nil, err
	}
	r.check(resp, &ld.oracle)
	return ld, nil
}

// tally counts the requests of a load phase and their failures.
func (r *run) tally(ss []sample) {
	for _, s := range ss {
		r.attempted++
		if s.fail != "" {
			r.fail(s.fail)
		}
	}
}

// check runs the oracle over the stored responses; each response that
// fails it counts as a failed operation.
func (r *run) check(resp *responses, res *oracleResult) {
	one := func(idx int, body []byte) {
		before := len(res.failures)
		checkResponse(&r.in.reqs[idx], body, r.in.attrs, res)
		if len(res.failures) > before {
			r.fail(res.failures[before])
		}
	}
	idxs := make([]int, 0, len(resp.first))
	for idx := range resp.first {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		one(idx, resp.first[idx])
	}
}

// e2e computes the end-to-end metrics from the child-driven part.
func (r *run) e2e(ld *load) {
	m := r.report
	m.set("setup_s", median(append([]float64(nil), ld.setups...)), "s")
	// lat and ttfb cover the requests clean_ms_* describes: all of them,
	// or in tenant-churn the cold admissions, the requests that workload
	// exists to time. Its hot-tenant requests are reported apart.
	var lat, hot, ttfb []float64
	rows := 0
	for _, s := range ld.samples {
		ms := float64(s.latency) / 1e6
		if r.w.registry && !s.cold {
			hot = append(hot, ms)
		} else {
			lat = append(lat, ms)
			ttfb = append(ttfb, float64(s.ttfb)/1e6)
		}
		rows += s.rows
	}
	m.set("rows_per_s", float64(rows)/ld.wall.Seconds(), "rows/s")
	m.set("clean_ms_p50", median(lat), "ms")
	if p := tailPercentile(len(lat)); p > 50 {
		m.set(fmt.Sprintf("clean_ms_p%g", p), percentile(lat, p), "ms")
	}
	m.set("clean.samples", float64(len(lat)), "count")
	var full, delta []float64
	for _, p := range ld.promos {
		if p.delta {
			delta = append(delta, p.ms)
		} else {
			full = append(full, p.ms)
		}
	}
	m.set("promote_delta_ms_p50", median(delta), "ms")
	m.set("promote_full_ms_p50", median(full), "ms")
	m.set("promotions", float64(len(ld.promos)), "count")
	m.set("peak_rss_mb", ld.rssMB, "MB")
	m.setRatio("fail_ratio", ratio{float64(r.failed), float64(r.attempted)}, "attempted", "count")
	m.set("server.ttfb_ms_p50", median(ttfb), "ms")
	if r.w.registry {
		m.set("admit_ms_p50", median(lat), "ms")
		m.set("clean_hot_ms_p50", median(hot), "ms")
	}
	m.set("oracle.responses_checked", float64(ld.oracle.checked), "count")
	m.set("oracle.cells_changed", float64(ld.oracle.repaired), "count")
	m.set("oracle.cells_checked", float64(ld.oracle.cells), "count")
	for k, v := range scraped(ld) {
		m[k] = v
	}
	if !r.trace {
		r.out = pick(m, contractMetrics...)
	}
}

func pick(m metrics, names ...string) metrics {
	out := metrics{}
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}

// print writes the run record, the full report, and the result line.
func (r *run) print() {
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(map[string]any{"record": r.record})
	_ = enc.Encode(map[string]any{"report": r.report, "failures": r.failures, "drift": r.drift})
	correct := r.failed == 0 && len(r.drift) == 0
	_ = enc.Encode(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.out,
	})
}

// makeRecord fills the run record: what ran, where, and how.
func (r *run) makeRecord(ld *load) {
	gmp := os.Getenv("GOMAXPROCS")
	if gmp == "" {
		gmp = strconv.Itoa(runtime.NumCPU()) + " (default)"
	}
	r.record = map[string]any{
		"workload":          r.w.name,
		"seed":              r.seed,
		"seconds":           r.window.Seconds(),
		"trace":             r.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs_bench":  runtime.GOMAXPROCS(0),
		"gomaxprocs_child":  gmp,
		"go_version":        runtime.Version(),
		"commit":            commit(),
		"source_sha256":     sourceHash("."),
		"detectived_sha256": fileHash(r.bin),
		"child_flags":       ld.childFlags,
		"clients":           r.w.clients,
		"window_s":          ld.wall.Seconds(),
	}
}

// commit names the source revision: git's HEAD when the checkout is a
// repository, else "unknown" (source_sha256 then identifies the tree).
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceHash hashes every Go source and module file under root, skipping
// hidden directories (build output, VCS metadata).
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			f, err := os.Open(p)
			if err != nil {
				return nil
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\x00", p)
			_, _ = io.Copy(h, f)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	_, _ = io.Copy(h, f)
	return hex.EncodeToString(h.Sum(nil))
}
