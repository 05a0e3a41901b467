#!/usr/bin/env bash
# `hydra perf` as a gate over captured agreebench output, driven by ctest:
#
#   1. Three runs merge to the per-metric median, and --json records their
#      stamp as the context; a bench document read back with --json keeps
#      its context.
#   2. A run equal to the baseline passes.
#   3. A work count (unit count or B) changed by +1 or by -1 fails: counts
#      are compared exactly, in both directions.
#   4. A time 20% over its baseline passes at --budget 0.25; 30% over fails.
#   5. Any value above a zero baseline fails.
#   6. A baseline metric missing from the run fails.
#   7. A run whose result says "correct": false, or that has no result line,
#      is rejected.
#
# Usage: cli_perf_test.sh /path/to/hydra
set -u

HYDRA="${1:?usage: cli_perf_test.sh /path/to/hydra}"
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

TMPDIR_ROOT="$(mktemp -d /tmp/hydra-cli-perf-XXXXXX)"
trap 'rm -rf "$TMPDIR_ROOT"' EXIT
cd "$TMPDIR_ROOT" || exit 1

# agree_out FILE CPU_MS MSGS LAG_MS [CORRECT]: a captured agreebench run of
# r2-burst-sim in the shape agreebench prints, with three gated metrics.
agree_out() {
  cat >"$1" <<EOF
agreebench workload=r2-burst-sim seed=1 seconds=5 trace=0
stamp git=0123456789ab dirty=0 build=Release compiler=GNU 12.2.0 nproc=4
setup_s runs 0.1600 0.1610 0.1620
metric cpu_ms_per_agreement                 $2 ms
metric msgs_per_agreement                   $3 count
metric serve.admission_lag_ms_max           $4 ms
{"correct": ${5:-true}, "attempted": 2000, "failed": 0, "metrics": {"cpu_ms_per_agreement": {"value": $2, "unit": "ms"}, "msgs_per_agreement": {"value": $3, "unit": "count"}, "serve.admission_lag_ms_max": {"value": $4, "unit": "ms"}}}
EOF
}

# expect STATUS DESCRIPTION -- ARGS...: runs `hydra perf ARGS` and requires
# exit STATUS.
expect() {
  local want="$1" what="$2"
  shift 3
  "$HYDRA" perf "$@" >"out.txt" 2>&1
  local got=$?
  [ "$got" -eq "$want" ] || fail "$what: expected exit $want, got $got: $(cat out.txt)"
}

# --- 1. three runs merge to the median --------------------------------------
agree_out run1.out 3.0 1115 0
agree_out run2.out 5.0 1115 0
agree_out run3.out 4.0 1115 0
expect 0 "merge" -- --input 'run*.out' --json base.json
grep -q '"name":"r2-burst-sim/cpu_ms_per_agreement","unit":"ms","value":4,"repetitions":3' base.json \
  || fail "merge: cpu_ms_per_agreement is not the median of 3, 5 and 4: $(cat base.json)"
grep -q '"name":"r2-burst-sim/msgs_per_agreement","unit":"count","value":1115,"repetitions":3' base.json \
  || fail "merge: msgs_per_agreement is not 1115 over 3 runs: $(cat base.json)"
grep -q '"context":{"git":"0123456789ab","dirty":"0","build":"Release"}' base.json \
  || fail "merge: the stamp is not the context: $(cat base.json)"
expect 0 "round trip" -- --input base.json --json again.json
cmp -s base.json again.json || fail "round trip: --json rewrote the document: $(cat again.json)"

# --- 2. an equal run passes --------------------------------------------------
expect 0 "equal run" -- --input run3.out --baseline base.json --budget 0.25

# --- 3. counts are exact in both directions ----------------------------------
agree_out plus.out 4.0 1116 0
expect 1 "count +1" -- --input plus.out --baseline base.json --budget 0.25
agree_out minus.out 4.0 1114 0
expect 1 "count -1" -- --input minus.out --baseline base.json --budget 0.25
expect 1 "count inflated by 1.0001" -- --input base.json --baseline base.json --inflate 1.0001 --budget 0.25

# --- 4. times keep the budget ------------------------------------------------
agree_out slower20.out 4.8 1115 0
expect 0 "time +20% at budget 0.25" -- --input slower20.out --baseline base.json --budget 0.25
agree_out slower30.out 5.2 1115 0
expect 1 "time +30% at budget 0.25" -- --input slower30.out --baseline base.json --budget 0.25

# --- 5. above a zero baseline ------------------------------------------------
agree_out lag.out 4.0 1115 0.5
expect 1 "above a zero baseline" -- --input lag.out --baseline base.json --budget 0.25

# --- 6. a missing baseline metric --------------------------------------------
head -n 6 run3.out >short.out
echo '{"correct": true, "attempted": 2000, "failed": 0, "metrics": {"cpu_ms_per_agreement": {"value": 4.0, "unit": "ms"}, "msgs_per_agreement": {"value": 1115, "unit": "count"}}}' >>short.out
expect 1 "missing metric" -- --input short.out --baseline base.json --budget 0.25
grep -q 'missing' out.txt || fail "missing metric: the table does not say so: $(cat out.txt)"

# --- 7. failed or unfinished runs are rejected -------------------------------
agree_out wrong.out 4.0 1115 0 false
expect 1 "correct: false" -- --input wrong.out --baseline base.json --budget 0.25
grep -q 'correct": false' out.txt || fail "correct: false: the error does not say why: $(cat out.txt)"
expect 1 "correct: false among passing runs" -- --input 'run1.out,wrong.out' --json never.json
[ ! -e never.json ] || fail "correct: false among passing runs: a document was written"
head -n 6 run3.out >cut.out
expect 1 "no result line" -- --input cut.out --baseline base.json --budget 0.25
grep -q 'no result line' out.txt || fail "no result line: the error does not say why: $(cat out.txt)"

if [ "$FAILURES" -ne 0 ]; then
  echo "cli_perf: $FAILURES failure(s)" >&2
  exit 1
fi
echo "cli_perf: all checks passed"
