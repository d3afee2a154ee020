#!/usr/bin/env bash
# End-to-end smoke test of the streaming frame-sequence workload against a
# live server: mcmcpar_submit generates 8 synthetic drifting frames, pushes
# them as inline float32 UPLOAD frames and submits one '@sequence=8
# @image=inline' job; the script asserts the socket event stream carried
# one in-order FRAME event per frame with monotonically increasing seq
# numbers, and that the REPORT JSON carries per-frame results and tracks.
#
# usage: stream_smoke.sh <mcmcpar_serve> <mcmcpar_submit>
set -euo pipefail

SERVE_BIN=$1
SUBMIT_BIN=$2
FRAMES=8

WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== starting mcmcpar_serve (ephemeral socket) =="
"$SERVE_BIN" --listen 0 --iterations 600 --drain-timeout 20 \
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

echo "== inline-upload sequence: $FRAMES drifting frames =="
# --progress streams EVENT lines to stderr; keep them for the assertions.
if ! "$SUBMIT_BIN" --port "$PORT" --progress --sequence "$FRAMES" \
    --seq-size 96 --seq-cells 4 serial @iters=500 @label=stream-smoke \
    > "$WORK/result.json" 2> "$WORK/events.log"; then
  echo "sequence job failed"; cat "$WORK/events.log" "$WORK/result.json"; exit 1
fi
cat "$WORK/result.json"

echo "== event stream: one in-order FRAME event per frame =="
grep ' FRAME ' "$WORK/events.log" > "$WORK/frames.log" || true
FRAME_EVENTS=$(wc -l < "$WORK/frames.log")
if [[ "$FRAME_EVENTS" -ne "$FRAMES" ]]; then
  echo "expected $FRAMES FRAME events, saw $FRAME_EVENTS:"
  cat "$WORK/events.log"; exit 1
fi
# frame=K/N must appear in order K = 0..N-1.
K=0
while read -r LINE; do
  echo "$LINE" | grep -q "frame=$K/$FRAMES" || {
    echo "out-of-order frame event (wanted frame=$K/$FRAMES): $LINE"
    cat "$WORK/frames.log"; exit 1
  }
  K=$((K + 1))
done < "$WORK/frames.log"
# seq= must be strictly increasing over the whole event stream.
LAST=0
while read -r SEQ; do
  if [[ "$SEQ" -le "$LAST" ]]; then
    echo "event seq not monotonic ($SEQ after $LAST):"
    cat "$WORK/events.log"; exit 1
  fi
  LAST=$SEQ
done < <(sed -n 's/.* seq=\([0-9]*\)$/\1/p' "$WORK/events.log")
echo "saw $FRAME_EVENTS in-order FRAME events, seq monotonic up to $LAST"

echo "== report: per-frame results and cross-frame tracks =="
JOB_ID=$(sed -n 's/.*"id": \([0-9]*\).*/\1/p' "$WORK/result.json" | head -1)
[[ -n "$JOB_ID" ]] || { echo "no job id in result"; cat "$WORK/result.json"; exit 1; }
"$SUBMIT_BIN" --port "$PORT" --report "$JOB_ID" > "$WORK/report.json"
grep -q '"frames": \[' "$WORK/report.json" || { echo "no frames in report"; cat "$WORK/report.json"; exit 1; }
grep -q '"tracks": \[' "$WORK/report.json" || { echo "no tracks in report"; exit 1; }
grep -q '"label": "cam.0"' "$WORK/report.json" || { echo "no cam.0 frame"; exit 1; }
grep -q "\"label\": \"cam.$((FRAMES - 1))\"" "$WORK/report.json" \
  || { echo "missing final frame"; exit 1; }

echo "== stats: interned upload counters =="
STATS=$("$SUBMIT_BIN" --port "$PORT" --stats)
echo "$STATS"
echo "$STATS" | grep -q '"cache_interned": ' || exit 1
echo "$STATS" | grep -q '"cache_oneshot_bypasses": ' || exit 1

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
grep -q 'interned frame' "$WORK/serve.log" || { cat "$WORK/serve.log"; exit 1; }

echo "stream smoke OK"
