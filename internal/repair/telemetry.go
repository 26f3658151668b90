package repair

import (
	"time"

	"detective/internal/telemetry"
)

// DefaultTelemetrySampleEvery is the default latency-sampling period:
// one tuple in every 64 is timed end to end and per stage. Sampling
// keeps the instrumented FastRepair within noise of the uninstrumented
// hot path (a ~10µs tuple would otherwise pay several clock reads per
// rule step); outcome counters are exact, only latency is sampled.
const DefaultTelemetrySampleEvery = 64

// engineInstr is the engine's view of the telemetry registry: outcome
// counters bumped on every tuple, and sampled latency histograms. All
// engines in a process share the same series (registry getters are
// idempotent), mirroring how one process serves one workload.
type engineInstr struct {
	sampler *telemetry.Sampler
	// reg is the registry every collector was built against — the
	// process default normally, a private registry for scratch engines
	// (canary shadow replays) that must not pollute serving metrics.
	reg *telemetry.Registry

	// tupleSeconds is the sampled end-to-end fast-repair latency.
	tupleSeconds *telemetry.Histogram
	// stage latencies within a sampled tuple: "detect" covers evidence
	// prechecks and matcher evaluation, "repair" covers applying an
	// outcome (mutation, subsumption pruning).
	detectSeconds *telemetry.Histogram
	repairSeconds *telemetry.Histogram
	// fixpointSteps is the number of rule applications a sampled tuple
	// needed to reach its fixpoint.
	fixpointSteps *telemetry.Histogram
	// sampled counts tuples that were latency-sampled, so dashboards
	// can scale histogram rates back to tuple rates.
	sampled *telemetry.Counter

	// outcomes is indexed by tupleOutcome and counted on every tuple.
	outcomes [3]*telemetry.Counter

	// streamDeduped counts streamed rows answered by the repair memo
	// instead of a fresh repair.
	streamDeduped *telemetry.Counter
}

// newEngineInstr builds the engine's collectors against reg.
// sampleEvery <= -1 disables latency sampling entirely; 0 picks
// DefaultTelemetrySampleEvery.
func newEngineInstr(sampleEvery int, reg *telemetry.Registry) *engineInstr {
	if sampleEvery == 0 {
		sampleEvery = DefaultTelemetrySampleEvery
	}
	if sampleEvery < 0 {
		sampleEvery = 0 // Sampler admits nothing
	}
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram("detective_repair_stage_seconds",
			"Sampled per-stage latency within one tuple repair.",
			telemetry.DefBuckets, telemetry.Label{Name: "stage", Value: name})
	}
	in := &engineInstr{
		sampler: telemetry.NewSampler(sampleEvery),
		reg:     reg,
		tupleSeconds: reg.Histogram("detective_repair_tuple_seconds",
			"Sampled end-to-end latency of one fast-repair tuple.",
			telemetry.DefBuckets),
		detectSeconds: stage("detect"),
		repairSeconds: stage("repair"),
		fixpointSteps: reg.Histogram("detective_repair_fixpoint_steps",
			"Rule applications per sampled tuple before the fixpoint.",
			telemetry.ExpBuckets(1, 2, 10)),
		sampled: reg.Counter("detective_repair_sampled_total",
			"Tuples whose repair latency was sampled."),
	}
	in.outcomes[tupleOK] = reg.Counter("detective_repair_tuples_total",
		"Tuples repaired, by outcome.", telemetry.Label{Name: "outcome", Value: "repaired"})
	in.outcomes[tupleBudgetExhausted] = reg.Counter("detective_repair_tuples_total",
		"Tuples repaired, by outcome.", telemetry.Label{Name: "outcome", Value: "budget_exhausted"})
	in.outcomes[tupleQuarantined] = reg.Counter("detective_repair_tuples_total",
		"Tuples repaired, by outcome.", telemetry.Label{Name: "outcome", Value: "quarantined"})
	in.streamDeduped = reg.Counter("detective_stream_dedup_rows_total",
		"Streamed rows answered from the global repair memo instead of a fresh repair. Each served row counts exactly once.")
	return in
}

// stageTimer accumulates per-stage wall time for one sampled tuple.
// It lives on fastState only while that tuple is sampled; every
// non-sampled tuple pays a single nil check per rule step.
type stageTimer struct {
	detect time.Duration
	repair time.Duration
	start  time.Time
}

// observe flushes a sampled tuple's measurements into the histograms.
func (in *engineInstr) observe(tm *stageTimer, steps int) {
	in.sampled.Inc()
	in.tupleSeconds.Observe(time.Since(tm.start).Seconds())
	in.detectSeconds.Observe(tm.detect.Seconds())
	in.repairSeconds.Observe(tm.repair.Seconds())
	in.fixpointSteps.Observe(float64(steps))
}
