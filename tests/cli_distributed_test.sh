#!/usr/bin/env bash
# Distributed-run observability, end to end (ctest label "socket"):
#
#   1. A real 4-process `hydra serve`/`join` run over UDS, each process
#      writing its own trace, stats heartbeats, and perf profile.
#   2. `hydra report --merge` stitches the per-process traces into one
#      timeline, re-evaluates the global monitors and exits 0; the same
#      traces with one `send` line deleted make it exit 1 on the orphan
#      deliver.
#   3. The merged timeline reproduces the single-process run of the same
#      spec/seed: per-party send tallies match exactly, and both verdicts
#      are violation-free.
#   4. `hydra top` renders the stats heartbeats; every stats file carries a
#      guaranteed final:1 line.
#   5. `hydra perf --input` merges the per-process hydra-perf-v1 profiles.
#   6. Kill regression: SIGTERM one join mid-run — it must exit via the
#      flush-on-signal path (130), leave valid JSONL behind, and the
#      survivors' traces must still merge (reported incomplete, not an
#      error).
#
# Usage: cli_distributed_test.sh /path/to/hydra
set -u

HYDRA="${1:?usage: cli_distributed_test.sh /path/to/hydra}"
FAILURES=0

fail() {
  echo "FAIL: $*" >&2
  FAILURES=$((FAILURES + 1))
}

TMPDIR_ROOT="$(mktemp -d /tmp/hydra-cli-dist-XXXXXX)"
trap 'rm -rf "$TMPDIR_ROOT"' EXIT
cd "$TMPDIR_ROOT" || exit 1

PEERS="$TMPDIR_ROOT/p0.sock,$TMPDIR_ROOT/p1.sock,$TMPDIR_ROOT/p2.sock,$TMPDIR_ROOT/p3.sock"
SPEC="--peers $PEERS --backend uds --ts 1 --ta 1 --dim 1 \
      --adversary none --corrupt 0 --network sync-worst \
      --monitors record --seed 1"

# --- 1. four processes, each with trace + stats + perf sinks ---------------
PIDS=()
for party in 0 1 2 3; do
  # shellcheck disable=SC2086
  timeout 60 "$HYDRA" serve --party "$party" $SPEC \
      --trace-out "trace.p$party.jsonl" \
      --stats-json "stats.p$party.jsonl" --stats-interval 10 \
      --perf-json "perf.p$party.json" \
      >"party$party.out" 2>&1 &
  PIDS+=($!)
done
for party in 0 1 2 3; do
  if ! wait "${PIDS[$party]}"; then
    fail "serve: party $party exited nonzero: $(cat "party$party.out")"
  fi
done
[ "$FAILURES" -eq 0 ] || { echo "$FAILURES failure(s)" >&2; exit 1; }

# --- 2. merge: re-evaluated, and orphan delivers fail a complete merge ------
if ! "$HYDRA" report --merge 'trace.p*.jsonl' --merged-out merged.jsonl \
    >report.txt 2>merge.err; then
  fail "hydra report --merge failed: $(cat merge.err)"
fi
grep -q 'merged 4 trace(s)' merge.err \
  || fail "report --merge summary missing: $(cat merge.err)"
grep -q 'global monitors re-evaluated' merge.err \
  || fail "merge did not re-evaluate global monitors: $(cat merge.err)"
tail -1 merged.jsonl | grep -q '"complete":1' \
  || fail "merged end marker not complete: $(tail -1 merged.jsonl)"
tail -1 merged.jsonl | grep -q '"violations":0' \
  || fail "merged timeline carries violations: $(tail -1 merged.jsonl)"
tail -1 merged.jsonl | grep -q '"orphans":0' \
  || fail "healthy run produced orphan delivers: $(tail -1 merged.jsonl)"
# The same complete run with one send line lost: the deliver naming it is an
# orphan, which a complete merge must not accept.
mkdir lost
cp trace.p*.jsonl lost/
SEND_LINE=$(grep -n '"ev":"send",' lost/trace.p1.jsonl | head -1 | cut -d: -f1)
sed -i "${SEND_LINE}d" lost/trace.p1.jsonl
"$HYDRA" report --merge 'lost/trace.p*.jsonl' >lost.txt 2>lost.err
STATUS=$?
[ "$STATUS" -eq 1 ] \
  || fail "merge of a trace missing one send: expected exit 1, got $STATUS"
grep -q 'error: 1 orphan deliver' lost.err \
  || fail "merge of a trace missing one send names no orphan: $(cat lost.err)"

# --- 3. merged == single-process run of the same spec/seed ------------------
# The reference is the SIMULATOR backend: virtual time makes its trajectory
# a pure function of (spec, seed), so the comparison cannot be perturbed by
# machine load. A single-process socket run reproduces the same trajectory
# when undisturbed, but its wall-clock tick schedule is not load-proof.
if ! "$HYDRA" run --n 4 --ts 1 --ta 1 --dim 1 \
    --adversary none --corrupt 0 --network sync-worst \
    --monitors record --seed 1 --trace-out single.jsonl \
    >single.out 2>&1; then
  fail "single-process reference run failed: $(cat single.out)"
fi
for party in 0 1 2 3; do
  MERGED_SENDS=$(grep -c "\"ev\":\"send\",[^}]*\"from\":$party," merged.jsonl)
  SINGLE_SENDS=$(grep -c "\"ev\":\"send\",[^}]*\"from\":$party," single.jsonl)
  [ "$MERGED_SENDS" -gt 0 ] || fail "party $party sent nothing in merged trace"
  [ "$MERGED_SENDS" -eq "$SINGLE_SENDS" ] \
    || fail "party $party send tally differs: merged=$MERGED_SENDS single=$SINGLE_SENDS"
done

# --- 4. stats heartbeats + hydra top ---------------------------------------
for party in 0 1 2 3; do
  [ -s "stats.p$party.jsonl" ] || fail "stats.p$party.jsonl empty or missing"
  head -1 "stats.p$party.jsonl" | grep -q '"schema":"hydra-stats-v1"' \
    || fail "stats.p$party.jsonl first line lacks the schema tag"
  tail -1 "stats.p$party.jsonl" | grep -q '"final":1' \
    || fail "stats.p$party.jsonl lacks the guaranteed final heartbeat"
done
if ! "$HYDRA" top --input 'stats.p*.jsonl' >top.txt 2>&1; then
  fail "hydra top failed: $(cat top.txt)"
fi
grep -q 'final' top.txt || fail "hydra top shows no final process state"

# --- 5. merged perf profiles ------------------------------------------------
if ! "$HYDRA" perf --input 'perf.p*.json' >perf.txt 2>&1; then
  fail "hydra perf --input merge failed: $(cat perf.txt)"
fi
grep -q 'merged 4 phase profiles' perf.txt \
  || fail "perf merge did not report 4 inputs: $(head -3 perf.txt)"

# --- 6. kill one join mid-run: survivors still merge ------------------------
rm -f trace.p*.jsonl stats.p*.jsonl
KSPEC="--peers $PEERS --backend uds --ts 1 --ta 1 --dim 1 \
       --adversary none --corrupt 0 --network sync-jitter \
       --monitors record --seed 3 --delta 20000"
PIDS=()
for party in 0 1 2 3; do
  # shellcheck disable=SC2086
  timeout 60 "$HYDRA" serve --party "$party" $KSPEC \
      --trace-out "trace.p$party.jsonl" \
      --stats-json "stats.p$party.jsonl" --stats-interval 10 \
      >"kparty$party.out" 2>&1 &
  PIDS+=($!)
done
# Kill only once party 3 is demonstrably inside the run: its stats file is
# created at run start, AFTER cmd_serve installed the signal handlers — a
# bare sleep races process spawn under load (SIGTERM before the handler is
# up exits 143 via the default action, not the flush path's 130).
for _ in $(seq 1 300); do
  [ -s stats.p3.jsonl ] && break
  sleep 0.1
done
[ -s stats.p3.jsonl ] || fail "party 3 never started emitting stats"
sleep 0.3  # let some protocol traffic accumulate before the kill
kill -TERM "${PIDS[3]}" 2>/dev/null
wait "${PIDS[3]}"
STATUS=$?
[ "$STATUS" -eq 130 ] \
  || fail "SIGTERM'd join: expected flush-and-exit status 130, got $STATUS"
for party in 0 1 2; do
  wait "${PIDS[$party]}" || true  # survivors may stall without party 3; the
done                              # timeout wrapper bounds them either way
[ -s trace.p3.jsonl ] || fail "killed join left no trace behind"
[ -s stats.p3.jsonl ] || fail "killed join left no stats behind"
if ! "$HYDRA" report --merge 'trace.p*.jsonl' --merged-out killed.jsonl \
    >kreport.txt 2>kmerge.err; then
  fail "merging traces from a killed run errored: $(cat kmerge.err)"
fi
grep -q 'incomplete' kmerge.err \
  || fail "killed-run merge not reported incomplete: $(cat kmerge.err)"
tail -1 killed.jsonl | grep -q '"complete":0' \
  || fail "killed-run merged end marker claims completeness"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)" >&2
  exit 1
fi
echo "cli_distributed_test: all checks passed"
