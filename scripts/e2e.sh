#!/usr/bin/env bash
# End-to-end exercise of the detectived HTTP surfaces, in both
# single-tenant (flag) mode — the registry's "default" tenant — and
# registry mode, against the checked-in sample KB. Drives /healthz,
# /clean (plain and ?ensemble=1), /reload, /metrics, and the
# /v1/{tenant}/... equivalents with curl, asserting response bodies,
# JSON shapes, and the X-Clean-* trailers (including the ensemble
# confidence trailers).
#
# Run from the repo root: ./scripts/e2e.sh (CI's e2e job does).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${E2E_PORT:-18080}
OPS=${E2E_OPS_PORT:-18081}
BASE="http://127.0.0.1:$PORT"
OPSBASE="http://127.0.0.1:$OPS"
BIN=$(mktemp -d)/detectived
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

fail() {
  echo "e2e: FAIL: $*" >&2
  exit 1
}

wait_ready() { # url
  for _ in $(seq 1 100); do
    curl -fsS -o /dev/null "$1" 2>/dev/null && return 0
    sleep 0.2
  done
  fail "server at $1 never became ready"
}

stop_server() {
  kill "$PID" 2>/dev/null || true
  wait "$PID" 2>/dev/null || true
  PID=""
}

# assert_contains haystack needle message
assert_contains() {
  case "$1" in
  *"$2"*) ;;
  *) fail "$3 (wanted \"$2\" in: $(printf '%s' "$1" | head -c 400))" ;;
  esac
}

go build -o "$BIN" ./cmd/detectived

echo "=== e2e: single-tenant mode ==="
"$BIN" -kb testdata/sample_kb.nt -rules testdata/e2e/rules.dr \
  -schema Name,Prize,Institution,City -name Nobel \
  -addr "127.0.0.1:$PORT" -ops-addr "127.0.0.1:$OPS" \
  -ensemble -ensemble-ref testdata/e2e/ref.csv \
  -log-level warn &
PID=$!
wait_ready "$BASE/healthz"

body=$(curl -fsS "$BASE/healthz")
assert_contains "$body" "ok" "/healthz body"

# Plain /clean: CSV out, repairs applied, stats in trailers. --raw
# keeps the chunked framing so the trailer block is visible.
out=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/clean")
assert_contains "$out" "Back Dromzais,Cist Prize in Chemistry,Jastrea Research Institute,Sturhaven" \
  "plain /clean must repair City from the KB (worksAt + locatedIn)"
assert_contains "$out" "Doundgrund Poulrin,Prios Prize in Chemistry" \
  "plain /clean must repair Prize to the chemistry award"
assert_contains "$out" "X-Clean-Rows: 2" "plain /clean trailer"
case "$out" in
*X-Clean-Confidence*) fail "plain /clean must not emit confidence trailers" ;;
esac

# Flag mode runs as the registry's "default" tenant: /v1/default/clean
# answers with the same body and X-Clean-* trailers as /clean, and
# GET /v1 lists the tenant.
prefixed=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/v1/default/clean")
[ "$prefixed" = "$out" ] || fail "/v1/default/clean must match /clean byte-for-byte, trailers included"
body=$(curl -fsS "$BASE/v1")
assert_contains "$body" '"default"' "GET /v1 must list the default tenant"

# Ensemble /clean: confidence column appended, confidence trailers.
out=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/clean?ensemble=1")
assert_contains "$out" "confidence" "ensemble /clean header must add the confidence column"
assert_contains "$out" "Jastrea Research Institute,Sturhaven,1.000" \
  "ensemble /clean must carry per-row confidence"
assert_contains "$out" "X-Clean-Rows: 2" "ensemble /clean rows trailer"
assert_contains "$out" "X-Clean-Confidence-Mean: " "ensemble confidence-mean trailer"
assert_contains "$out" "X-Clean-Confidence-Min: " "ensemble confidence-min trailer"
assert_contains "$out" "X-Clean-Confidence-Below: " "ensemble confidence-below trailer"
prefixed=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/v1/default/clean?ensemble=1")
[ "$prefixed" = "$out" ] || fail "/v1/default/clean?ensemble=1 must match /clean?ensemble=1 byte-for-byte"

# /stats: JSON including the per-engine ensemble reliability map.
curl -fsS "$BASE/stats" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert "ensembleReliability" in d, d.keys()
assert "detective" in d["ensembleReliability"], d["ensembleReliability"]
'

# /reload on the ops port stages a canary reload of the same KB file.
out=$(curl -fsS -X POST "$OPSBASE/reload")
python3 -c '
import json, sys
d = json.loads(sys.argv[1])
assert d.get("generation", 0) >= 2, d
assert d.get("triples", 0) > 0, d
' "$out"

# Incremental delta reload: the committed golden delta's base is the
# sample KB the server is serving (fingerprints match across text and
# snapshot forms), so POST /reload?delta=1 applies it.
out=$(curl -fsS -X POST --data-binary @testdata/delta/old_to_new.dkbsd "$OPSBASE/reload?delta=1")
python3 -c '
import json, sys
d = json.loads(sys.argv[1])
assert d.get("delta") is True, d
assert d.get("deltaOps", 0) > 0, d
assert d.get("generation", 0) >= 3, d
' "$out"
# The delta edits untouched entities: repairs must be unchanged.
out=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/clean")
assert_contains "$out" "Back Dromzais,Cist Prize in Chemistry,Jastrea Research Institute,Sturhaven" \
  "post-delta /clean must repair exactly as before"
assert_contains "$out" "Doundgrund Poulrin,Prios Prize in Chemistry" \
  "post-delta /clean must still repair Prize"
# Replaying the same delta is a stale-base 409: the serving graph's
# fingerprint moved to the delta's new side.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @testdata/delta/old_to_new.dkbsd "$OPSBASE/reload?delta=1")
[ "$code" = 409 ] || fail "stale-base delta replay must 409, got $code"
# /stats carries the delta accounting.
curl -fsS "$BASE/stats" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d.get("kbDeltasApplied", 0) == 1, d.get("kbDeltasApplied")
assert d.get("kbDeltaTriples", 0) > 0, d.get("kbDeltaTriples")
'

# /metrics: Prometheus exposition with the ensemble counter series.
metrics=$(curl -fsS "$OPSBASE/metrics")
assert_contains "$metrics" "detective_ensemble_proposals_total" "ensemble proposals metric"
assert_contains "$metrics" 'engine="detective"' "per-engine metric label"
assert_contains "$metrics" "detective_kb_reload_total" "reload metric"
assert_contains "$metrics" "detective_kb_delta_applied" "delta apply metric"

stop_server
echo "=== e2e: single-tenant mode OK ==="

echo "=== e2e: registry mode ==="
"$BIN" -registry testdata/e2e/tenants.json -warm all \
  -addr "127.0.0.1:$PORT" -ops-addr "127.0.0.1:$OPS" \
  -log-level warn &
PID=$!
wait_ready "$BASE/healthz"

# Tenant alpha has ensemble enabled in tenants.json.
out=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/v1/alpha/clean?ensemble=1")
assert_contains "$out" "confidence" "tenant ensemble /clean confidence column"
assert_contains "$out" "Back Dromzais,Cist Prize in Chemistry,Jastrea Research Institute,Sturhaven" \
  "tenant ensemble /clean must still repair City"
assert_contains "$out" "X-Clean-Confidence-Mean: " "tenant ensemble confidence trailer"

# Tenant beta inherits the defaults (no ensemble): plain clean works,
# ?ensemble=1 is a 400.
out=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/v1/beta/clean")
assert_contains "$out" "Doundgrund Poulrin,Prios Prize in Chemistry" "tenant beta plain /clean"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/v1/beta/clean?ensemble=1")
[ "$code" = 400 ] || fail "ensemble=1 on a non-ensemble tenant must 400, got $code"

# Per-tenant reload on the ops port, then fleet status.
out=$(curl -fsS -X POST "$OPSBASE/v1/alpha/reload")
python3 -c '
import json, sys
d = json.loads(sys.argv[1])
assert d.get("generation", 0) >= 2, d
' "$out"
curl -fsS "$OPSBASE/registry" | python3 -c '
import json, sys
d = json.load(sys.stdin)
names = {t["name"] for t in d["tenants"]}
assert {"alpha", "beta"} <= names, names
'

# Per-tenant incremental delta reload: rides the same handler under
# the tenant prefix, and the tenant must stay resident through it.
out=$(curl -fsS -X POST --data-binary @testdata/delta/old_to_new.dkbsd "$OPSBASE/v1/beta/reload?delta=1")
python3 -c '
import json, sys
d = json.loads(sys.argv[1])
assert d.get("delta") is True, d
assert d.get("generation", 0) >= 2, d
' "$out"
out=$(curl -fsS --raw -X POST --data-binary @testdata/e2e/dirty.csv "$BASE/v1/beta/clean")
assert_contains "$out" "Doundgrund Poulrin,Prios Prize in Chemistry" \
  "tenant beta post-delta /clean must repair as before"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @testdata/delta/old_to_new.dkbsd "$OPSBASE/v1/beta/reload?delta=1")
[ "$code" = 409 ] || fail "tenant stale-base delta replay must 409, got $code"
curl -fsS "$OPSBASE/registry" | python3 -c '
import json, sys
d = json.load(sys.stdin)
beta = next(t for t in d["tenants"] if t["name"] == "beta")
assert beta["resident"], beta
'
metrics=$(curl -fsS "$OPSBASE/metrics")
assert_contains "$metrics" "detective_ensemble_accepted_total" "registry ensemble metrics"

stop_server
echo "=== e2e: registry mode OK ==="
echo "e2e: PASS"
