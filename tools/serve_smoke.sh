#!/usr/bin/env bash
# End-to-end smoke test of the serving front-end against one live server:
#   1. manifest    — submit every job line of the manifest (each one is a
#                    valid SUBMIT line) with mcmcpar_submit --no-wait, then
#                    --wait on each id and require every job to end done;
#   2. socket mode — SUBMIT/WAIT/RESULT/STATS a job through mcmcpar_submit,
#                    and a rejected SUBMIT exits 1;
#   3. METRICS     — the Prometheus exposition, monotone across scrapes;
#   4. SHUTDOWN    — check the server drains and exits cleanly, after which
#                    a submit to the closed port exits 2.
#
# usage: serve_smoke.sh <mcmcpar_serve> <mcmcpar_submit> <manifest>
set -euo pipefail

SERVE_BIN=$1
SUBMIT_BIN=$2
MANIFEST=$3

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== starting mcmcpar_serve (ephemeral socket) =="
"$SERVE_BIN" --listen 0 --iterations 600 \
  --width 96 --height 96 --cells 4 --drain-timeout 20 \
  > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  # The log appears only once the background shell has opened it.
  PORT=$(sed -n 's/^LISTENING //p' "$WORK/serve.log" 2>/dev/null | head -1) || true
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "server never reported its port"; cat "$WORK/serve.log"; exit 1; }
echo "server up on port $PORT (pid $SERVER_PID)"

echo "== manifest: submit every job line, then wait on each =="
IDS=()
while read -r -a TOKENS; do
  [[ ${#TOKENS[@]} -eq 0 || ${TOKENS[0]} == \#* ]] && continue
  ID=$("$SUBMIT_BIN" --port "$PORT" --no-wait "${TOKENS[@]}") \
    || { echo "submit failed: ${TOKENS[*]}"; cat "$WORK/serve.log"; exit 1; }
  IDS+=("$ID")
done < "$MANIFEST"
JOBS=$(grep -cve '^\s*#' -e '^\s*$' "$MANIFEST")
[[ ${#IDS[@]} -eq $JOBS ]] || { echo "submitted ${#IDS[@]} of $JOBS jobs"; exit 1; }
for ID in "${IDS[@]}"; do
  "$SUBMIT_BIN" --port "$PORT" --wait "$ID" > "$WORK/job$ID.json" \
    || { echo "job $ID did not end done:"; cat "$WORK/job$ID.json"; exit 1; }
done
echo "manifest OK: $JOBS job(s) done (ids ${IDS[*]})"

echo "== socket mode: submit + wait + result =="
OUT=$("$SUBMIT_BIN" --port "$PORT" --progress synth serial @iters=400 @label=socket-smoke)
echo "$OUT"
echo "$OUT" | grep -q '"state": "done"' || { echo "job did not finish"; exit 1; }
"$SUBMIT_BIN" --port "$PORT" --stats | grep -q '"done"' || exit 1
# An ERR reply exits 1, distinct from a usage or connection error (2).
RC=0
"$SUBMIT_BIN" --port "$PORT" --no-wait /no/such.pgm serial 2> "$WORK/rejected.txt" || RC=$?
[[ $RC -eq 1 ]] || { echo "rejected SUBMIT exited $RC, expected 1"; cat "$WORK/rejected.txt"; exit 1; }
grep -q 'ERR' "$WORK/rejected.txt" || { cat "$WORK/rejected.txt"; exit 1; }

echo "== METRICS: Prometheus exposition, monotone across scrapes =="
"$SUBMIT_BIN" --port "$PORT" --metrics > "$WORK/metrics1.txt"
for family in \
  mcmcpar_build_info \
  mcmcpar_serve_commands_total \
  mcmcpar_serve_command_seconds_bucket \
  mcmcpar_serve_queue_wait_seconds_count \
  mcmcpar_serve_job_run_seconds_count \
  mcmcpar_serve_cache_hits_total \
  mcmcpar_serve_cache_misses_total \
  mcmcpar_serve_jobs_submitted_total \
  mcmcpar_engine_runs_total; do
  grep -q "^$family" "$WORK/metrics1.txt" \
    || { echo "METRICS is missing $family:"; cat "$WORK/metrics1.txt"; exit 1; }
done
"$SUBMIT_BIN" --port "$PORT" --metrics > "$WORK/metrics2.txt"
# A scrape renders before its own command counter increments, so scrape 1
# may not carry the METRICS series yet — that reads as 0.
SCRAPE1=$(awk '/^mcmcpar_serve_commands_total\{command="METRICS"\}/ {print $2}' "$WORK/metrics1.txt")
SCRAPE2=$(awk '/^mcmcpar_serve_commands_total\{command="METRICS"\}/ {print $2}' "$WORK/metrics2.txt")
SCRAPE1=${SCRAPE1:-0}
[[ -n "$SCRAPE2" && "$SCRAPE2" -gt "$SCRAPE1" ]] \
  || { echo "METRICS counter not monotone: '$SCRAPE1' -> '$SCRAPE2'"; exit 1; }
echo "metrics OK: METRICS scrape counter $SCRAPE1 -> $SCRAPE2"

echo "== graceful shutdown =="
"$SUBMIT_BIN" --port "$PORT" --shutdown | grep -q '^OK draining' || exit 1
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server ignored SHUTDOWN"; cat "$WORK/serve.log"; exit 1
fi
SERVER_PID=""
grep -q '^served' "$WORK/serve.log" || { cat "$WORK/serve.log"; exit 1; }
# The port has no listener now: a connection error exits 2.
RC=0
"$SUBMIT_BIN" --port "$PORT" --no-wait synth serial 2> /dev/null || RC=$?
[[ $RC -eq 2 ]] || { echo "submit to a closed port exited $RC, expected 2"; exit 1; }

echo "serve smoke OK"
