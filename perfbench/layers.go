package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ledgerOp names, per workload, the in-process operation whose layer
// spans explain its clean_ms_p50.
var ledgerOp = map[string]string{
	"clean-cold":   "clean.request",
	"clean-zipf":   "clean.request",
	"tenant-churn": "admit",
}

// layers computes the per-layer metrics of a traced run: differences of
// the child's counters across the counted load phase, and the spans of
// the in-process replay.
func (r *run) layers(ld *load) error {
	tr, err := runTraced(r.w, r.in, r.w.warmup, filepath.Join(r.dir, "spans.json"))
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	m := metrics{}
	dur := byName(tr.spans)
	for k, v := range scraped(ld) {
		m[k] = v
	}

	m.set("server.ttfb_ms_p50", r.report["server.ttfb_ms_p50"].Value, "ms")
	var replayed []float64
	for _, p := range ld.promos {
		replayed = append(replayed, float64(p.replayed))
	}
	m.set("server.canary.replayed_rows", median(replayed), "count")

	rows := float64(tr.clean.rows)
	req := tr.under("clean.request")
	m.set("relation.decode_us_per_row", sum(req["relation.decode"])*1e3/rows, "us")
	m.set("relation.encode_us_per_row", sum(req["relation.encode"])*1e3/rows, "us")

	rowUS := scale(dur["repair.row"], 1e3)
	m.set("repair.row_us_p50", median(rowUS), "us")
	m.set("repair.row_us_p99", percentile(rowUS, 99), "us")
	bad := 0
	for _, s := range ld.samples {
		bad += s.bad
	}
	m.set("repair.bad_rows", float64(bad), "count")
	m.set("repair.cells_repaired", float64(tr.clean.repaired), "count")
	m.set("repair.warm_ms", median(dur["repair.warm"]), "ms")
	m.set("repair.replay_ms", median(dur["repair.replay"]), "ms")

	m.set("rules.candidates_us_p50", median(scale(dur["rules.candidates"], 1e3)), "us")
	m.set("rules.evaluate_us_p50", median(scale(dur["rules.evaluate"], 1e3)), "us")
	m.set("similarity.evals_per_row", tr.simPerRow, "count/row")
	m.set("kb.load_ms", median(dur["kb.load"]), "ms")
	m.set("kb.freeze_ms", median(dur["kb.freeze"]), "ms")
	m.set("kb.read_delta_ms", median(dur["kb.read_delta"]), "ms")
	m.set("kb.apply_delta_ms", median(dur["kb.apply_delta"]), "ms")
	m.set("verify.check_ms", median(dur["verify.check"]), "ms")

	m.set("registry.admit_ms_p50", median(dur["registry.admit"]), "ms")
	e2e := r.report["clean_ms_p50"].Value
	explained := median(tr.rootLayers[ledgerOp[r.w.name]])
	m.setRatio("ledger.residual", ratio{e2e - explained, e2e}, "ledger.e2e_ms", "ms")
	m.set("ledger.layers_ms", explained, "ms")

	m.setRatio("trace.overhead", tr.overhead, "trace.untraced_ms", "ms")

	for k, v := range m {
		r.report[k] = v
	}
	r.out = m
	return r.checkCounts(m)
}

// scraped computes the metrics read from the child's own accounting:
// differences of /stats, /metrics and /registry across the load phase.
func scraped(ld *load) metrics {
	m := metrics{}
	b, a := ld.before, ld.after
	m.set("server.shed", a.metrics["detective_http_shed_total"]-b.metrics["detective_http_shed_total"], "count")
	tm, cm := a.stats.Memo.Tuple.sub(b.stats.Memo.Tuple), a.stats.Memo.Cell.sub(b.stats.Memo.Cell)
	m.setRatio("repair.memo.tuple_hit_ratio", ratio{float64(tm.Hits), float64(tm.Hits + tm.Misses)}, "repair.memo.tuple_lookups", "count")
	m.setRatio("repair.memo.cell_hit_ratio", ratio{float64(cm.Hits), float64(cm.Hits + cm.Misses)}, "repair.memo.cell_lookups", "count")
	m.set("repair.memo.evictions", float64(tm.Evictions+cm.Evictions), "count")
	m.set("repair.stream.dedup_rows", a.metrics["detective_stream_dedup_rows_total"]-b.metrics["detective_stream_dedup_rows_total"], "count")
	cc := a.stats.CandidateCache.Hits - b.stats.CandidateCache.Hits
	cl := cc + a.stats.CandidateCache.Misses - b.stats.CandidateCache.Misses
	m.setRatio("rules.cache_hit_ratio", ratio{float64(cc), float64(cl)}, "rules.cache_lookups", "count")
	ih := a.stats.SignatureIndex.Hits - b.stats.SignatureIndex.Hits
	il := ih + a.stats.SignatureIndex.Misses - b.stats.SignatureIndex.Misses
	m.setRatio("similarity.index_hit_ratio", ratio{float64(ih), float64(il)}, "similarity.index_lookups", "count")
	var adm, ev int64
	for i, t := range a.registry.Tenants {
		adm += t.Admissions
		ev += t.Evictions
		if i < len(b.registry.Tenants) {
			adm -= b.registry.Tenants[i].Admissions
			ev -= b.registry.Tenants[i].Evictions
		}
	}
	m.set("registry.admissions", float64(adm), "count")
	m.set("registry.evictions", float64(ev), "count")
	return m
}

// checkCounts compares the counts that must repeat exactly with those
// an earlier traced run of the same workload, seed and binaries left
// behind, and records them for the next one. A moved count makes the
// result incorrect.
func (r *run) checkCounts(m metrics) error {
	names := []string{"repair.cells_repaired", "registry.admissions", "registry.evictions", "server.canary.replayed_rows"}
	cur := map[string]float64{}
	for _, n := range names {
		cur[n] = m[n].Value
	}
	dir := filepath.Join(filepath.Dir(r.dir), "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	key := fmt.Sprintf("%s-%d-%.16s-%.16s.json", r.w.name, r.seed, fileHash(r.bin), fileHash(os.Args[0]))
	path := filepath.Join(dir, key)
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if json.Unmarshal(data, &prev) == nil {
			sort.Strings(names)
			for _, n := range names {
				if prev[n] != cur[n] {
					r.drift = append(r.drift, fmt.Sprintf("%s: %v, earlier run %v", n, cur[n], prev[n]))
				}
			}
		}
		return nil
	}
	data, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (t memoTier) sub(o memoTier) memoTier {
	return memoTier{t.Hits - o.Hits, t.Misses - o.Misses, t.Evictions - o.Evictions}
}

// under groups the self times (ms) of the spans below root spans named
// root by span name.
func (tr *tracedRun) under(root string) map[string][]float64 {
	out := map[string][]float64{}
	for i, s := range tr.spans {
		top := s
		for top.Parent >= 0 {
			top = tr.spans[top.Parent]
		}
		if top.Name == root && s.Parent >= 0 {
			out[s.Name] = append(out[s.Name], float64(tr.self[i])/1e6)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
