#!/usr/bin/env bash
# Builds detectived and the benchmark from this checkout's sources, then
# runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload clean-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache,
# generated inputs, child logs and span dumps all stay under
# .bench_build/ in the checkout. Build errors go to stderr and end the
# run with a non-zero exit code before anything is printed on stdout.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/cmd/detectived" ] || {
	echo "perfbench: run from the repository root (no go.mod or cmd/detectived here)" >&2
	exit 2
}

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go build -o "$out/bin/detectived" ./cmd/detectived >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -detectived "$out/bin/detectived" -workdir "$out/work" "$@"
