# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet fmt-check test cover race fault chaos fuzz bench bench-smoke benchdiff ab abbench perfbench-check snapshot-check delta-check metrics-check experiments examples e2e clean

all: build vet fmt-check test

build:
	go build ./...

vet:
	go vet ./...

# Fails if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	go test ./...

# Tests with a merged coverage profile (CI uploads coverage.out as an
# artifact and prints the total).
cover:
	go test -coverprofile=coverage.out -coverpkg=./... ./...

race:
	go test -race ./...

# Fault-injection suite (panic quarantine, step budgets, chaotic I/O,
# load shedding, deadlines) under the race detector, repeated at one
# and two CPUs: the reference box has two, and GOMAXPROCS sets the
# server's default concurrency limit.
fault:
	go test -race -cpu 1,2 -count=3 -run TestFault ./internal/repair ./internal/server

# Chaos drills for the self-healing lifecycle, repeated under the race
# detector: canary reload rejection (strict self-check, shadow replay),
# watchdog auto-rollback under live traffic, reloads racing serving
# traffic against corrupt/suspect candidates — full and incremental
# delta alike (corrupt delta bytes, stale-base refusal, mixed
# full/delta swaps under load) — circuit-breaker trip/probe/recovery,
# and registry tenant churn (64 tenants through 8 residency slots with
# evictions racing in-flight requests).
chaos:
	go test -race -count=3 -run 'TestFaultBreaker' ./internal/repair
	go test -race -count=3 -run 'TestCanary|TestFaultCanary|TestRollback|TestReloadUnderLoad|TestFaultDelta|TestDeltaCanary' ./internal/server
	go test -race -count=3 -run 'TestLRUChurn|TestEvictionSkipsPinnedTenants|TestReadmissionAfterEviction' ./internal/registry

# Native Go fuzzing, FUZZTIME per target (go test -fuzz runs one
# target at a time): the rule-text parser must re-encode to a fixed
# point, rule evaluation must return exactly what the map-based
# reference matcher returns, bRepair and fRepair must reach the same
# marked tuple on any cell values, a POST /reload?delta=1 body must decode
# and apply without panicking (and an accepted apply must match the
# same delta applied to the text-parsed base), the KB text parser must
# re-encode to a fixed point, the flat signature index must return
# exactly what the map-based reference index returns, in the same
# order (entry order for ED lookups, which the reference answers by a
# scan), EDWithin's bit-parallel kernel must agree with the plain
# edit-distance DP, a /clean body must stream to the same bytes and counts
# with the repair memo on, replayed from the memo, and off, a DKBS
# snapshot must load to an error or to a graph that freezes, verifies
# and round-trips (the mmap path must not panic on it either), HasType,
# TypesOf and InstancesOf must equal a map-based transitive closure over
# a random taxonomy, parsed, decoded, mmap'd and delta-applied, and the
# in-repo CSV codec must agree with encoding/csv: the reader on fields,
# parse errors and record lines, fed a few bytes per read and with
# lines longer than its buffer, and the appender on the bytes csv.Writer
# writes for a record with "+"-marked cells, which must read back.
# FuzzCleanCSVStream and FuzzLoadSnapshot cap input minimization at 200
# runs: minimizing a mutation of a 24 KB CSV or a 247 KB snapshot seed
# would otherwise take the whole FUZZTIME.
# Crashers land in the package's testdata/fuzz/ and then run as plain
# tests.
FUZZTIME ?= 15s
fuzz:
	go test -run '^$$' -fuzz '^FuzzParseRules$$' -fuzztime $(FUZZTIME) ./internal/rules
	go test -run '^$$' -fuzz '^FuzzEvaluate$$' -fuzztime $(FUZZTIME) ./internal/rules
	go test -run '^$$' -fuzz '^FuzzBasicFast$$' -fuzztime $(FUZZTIME) ./internal/rules
	go test -run '^$$' -fuzz '^FuzzReadDelta$$' -fuzztime $(FUZZTIME) ./internal/kb
	go test -run '^$$' -fuzz '^FuzzParseKB$$' -fuzztime $(FUZZTIME) ./internal/kb
	go test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/kb
	go test -run '^$$' -fuzz '^FuzzTypeClosure$$' -fuzztime $(FUZZTIME) ./internal/kb
	go test -run '^$$' -fuzz '^FuzzStringIndex$$' -fuzztime $(FUZZTIME) ./internal/similarity
	go test -run '^$$' -fuzz '^FuzzEDWithin$$' -fuzztime $(FUZZTIME) ./internal/similarity
	go test -run '^$$' -fuzz '^FuzzCleanCSVStream$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/repair
	go test -run '^$$' -fuzz '^FuzzCSVReader$$' -fuzztime $(FUZZTIME) ./internal/relation
	go test -run '^$$' -fuzz '^FuzzAppendCSV$$' -fuzztime $(FUZZTIME) ./internal/relation

bench:
	go test -bench=. -benchmem ./...

# One iteration of every benchmark in the module: catches benchmarks
# that no longer compile or panic without paying for real measurement.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# Remeasure the repair benchmarks and gate against the committed
# baseline (the CI benchmark-regression gate, runnable locally).
benchdiff:
	go run ./cmd/experiments -bench-repair BENCH_repair.json
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_repair.json

# Alternating 30-s perfbench pairs of BASE against the working tree on
# one workload, which side runs first flipping per seed; prints each
# contract metric's medians, quartiles and pairs won per side.
BASE ?= HEAD
WORKLOAD ?= clean-cold
SEEDS ?= 1 2 3
ab:
	./scripts/ab.sh $(BASE) $(WORKLOAD) $(SEEDS)

# Alternating `go test -bench` runs of BASE against the working tree:
# each side's test binary for PKG runs BENCH RUNS times, which side
# goes first flipping per round; prints each benchmark's ns/op medians
# and quartiles, allocs/op and rounds won per side.
PKG ?= .
BENCH ?= ^Benchmark(FastRepairTuple|Ablation\w+)$$
RUNS ?= 6
abbench:
	./scripts/abbench.sh $(BASE) $(PKG) '$(BENCH)' $(RUNS)

# perfbench is a nested module, so `go build/vet/test ./...` never
# compile it; it calls Catalog.CandidatesOn, Matcher.EvaluateOn and
# Engine.Warm, so a change to them can break perfbench/run.sh unseen.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

# Snapshot golden gate: packing the checked-in sample KB must be
# byte-deterministic, and unpacking the snapshot must round-trip to
# the canonical text source byte-for-byte. info must read the section
# table, and verify also cross-checks the mmap'd load against the
# decode.
snapshot-check:
	@tmp="$$(mktemp -d)" && \
	go run ./cmd/kbtool pack testdata/sample_kb.nt "$$tmp/a.snap" && \
	go run ./cmd/kbtool pack testdata/sample_kb.nt "$$tmp/b.snap" && \
	cmp "$$tmp/a.snap" "$$tmp/b.snap" && \
	go run ./cmd/kbtool unpack "$$tmp/a.snap" "$$tmp/roundtrip.nt" && \
	cmp "$$tmp/roundtrip.nt" testdata/sample_kb.nt && \
	go run ./cmd/kbtool info "$$tmp/a.snap" >/dev/null && \
	go run ./cmd/kbtool verify "$$tmp/a.snap" && \
	rm -rf "$$tmp" && echo "snapshot-check: OK"

# Delta golden gate: diffing the checked-in old/new snapshot pair must
# be byte-deterministic and match the committed golden delta, and
# `diff | apply` must reproduce the directly-packed new snapshot
# byte-for-byte. The committed .dkbs/.dkbsd binaries are themselves
# regenerable from the canonical .nt sources (cross-checked here).
delta-check:
	@tmp="$$(mktemp -d)" && \
	go run ./cmd/kbtool pack testdata/delta/old.nt "$$tmp/old.dkbs" && \
	cmp "$$tmp/old.dkbs" testdata/delta/old.dkbs && \
	go run ./cmd/kbtool pack testdata/delta/new.nt "$$tmp/new.dkbs" && \
	cmp "$$tmp/new.dkbs" testdata/delta/new.dkbs && \
	go run ./cmd/kbtool diff testdata/delta/old.dkbs testdata/delta/new.dkbs "$$tmp/a.dkbsd" && \
	go run ./cmd/kbtool diff testdata/delta/old.dkbs testdata/delta/new.dkbs "$$tmp/b.dkbsd" && \
	cmp "$$tmp/a.dkbsd" "$$tmp/b.dkbsd" && \
	cmp "$$tmp/a.dkbsd" testdata/delta/old_to_new.dkbsd && \
	go run ./cmd/kbtool apply testdata/delta/old.dkbs testdata/delta/old_to_new.dkbsd "$$tmp/applied.dkbs" && \
	cmp "$$tmp/applied.dkbs" testdata/delta/new.dkbs && \
	rm -rf "$$tmp" && echo "delta-check: OK"

# Drives real traffic through an httptest server, scrapes the registry
# the way the `-ops-addr` listener does, and validates the Prometheus
# exposition parses and carries the expected series.
metrics-check:
	go test -run 'TestMetricsExposition' -count=1 -v ./internal/server
	go test -run 'TestOpsMux|TestExpositionRoundTrip|TestValidateExpositionRejectsGarbage' -count=1 ./internal/telemetry

# Regenerate every table and figure of the paper (reduced scale).
experiments:
	go run ./cmd/experiments -exp all -csv results

examples:
	go run ./examples/quickstart
	go run ./examples/multiversion
	go run ./examples/rulegen
	go run ./examples/pathrule
	go run ./examples/nobel
	go run ./examples/webtables

# Daemon end-to-end suite: boots detectived in single-tenant and
# registry mode against the checked-in sample KB and drives the HTTP
# surfaces (including ensemble requests and confidence trailers) with
# curl. The CI e2e job runs exactly this.
e2e:
	./scripts/e2e.sh

clean:
	rm -rf results test_output.txt bench_output.txt coverage.out
