#!/usr/bin/env bash
# Loopback serve/connect smoke test: reconciles a 10k-element set with 100
# differences over TCP for EVERY scheme in the registry, as CI's end-to-end
# check of the framed session layer (docs/WIRE_FORMAT.md). Stage 2 then
# points 8 PARALLEL connects (mixed schemes) at ONE serve process to prove
# the event-loop server (net/ReconcileServer) multiplexes sessions, and
# stage 3 repeats that with 64 parallel connects against a `--shards 4`
# server to exercise the acceptor->shard fd handoff end to end.
#
# Usage: scripts/smoke_serve_connect.sh [path-to-pbs_cli]   (default build/pbs_cli)
set -euo pipefail

CLI="${1:-build/pbs_cli}"
PORT="${SMOKE_PORT:-7911}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" gen "$WORK/a.txt" 10000 --seed 7 >/dev/null
"$CLI" mutate "$WORK/a.txt" "$WORK/b.txt" --drop 50 --add 50 --seed 8 >/dev/null

# A mistyped flag (--shard-keyspace for --shards-keyspace) must fail with
# the subcommand's usage line, not run a monolithic session by default.
status=0
"$CLI" connect "$WORK/a.txt" --port "$PORT" --shard-keyspace 16 \
  2>"$WORK/flag.log" >/dev/null || status=$?
if [[ "$status" != 2 ]] || ! grep -q "unknown flag --shard-keyspace" "$WORK/flag.log"; then
  echo "FAIL: unknown connect flag exited $status"
  cat "$WORK/flag.log"
  exit 1
fi
echo "OK: unknown flag rejected"

schemes=$("$CLI" list-schemes | tail -n +2 | awk '{print $1}')
for scheme in $schemes; do
  : >"$WORK/serve.log"
  "$CLI" serve "$WORK/b.txt" --port "$PORT" --once 2>"$WORK/serve.log" &
  serve_pid=$!
  # Wait for the listener, not a fixed delay: serve logs "serving ..."
  # after bind+listen succeed.
  for _ in $(seq 1 100); do
    grep -q "^serving " "$WORK/serve.log" && break
    sleep 0.1
  done
  out=$("$CLI" connect "$WORK/a.txt" --host 127.0.0.1 --port "$PORT" \
        --scheme "$scheme" --quiet)
  wait "$serve_pid" || { echo "FAIL: serve side ($scheme)"; cat "$WORK/serve.log"; exit 1; }
  if [[ "$out" != "100 differences" ]]; then
    echo "FAIL: $scheme recovered '$out', expected '100 differences'"
    exit 1
  fi
  echo "OK: $scheme reconciled 10000 keys / 100 diffs over TCP"
done
echo "smoke test passed for all schemes"

# ---- stage 2: one server, 8 parallel clients ------------------------------
: >"$WORK/serve.log"
"$CLI" serve "$WORK/b.txt" --port "$PORT" --max-sessions 16 --stats \
  2>"$WORK/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 1 100); do
  grep -q "^serving " "$WORK/serve.log" && break
  sleep 0.1
done

# Mixed schemes, distinct seeds, all against the same serve process.
schemes_arr=($schemes)
pids=()
for i in $(seq 0 7); do
  scheme="${schemes_arr[$(( i % ${#schemes_arr[@]} ))]}"
  (
    out=$("$CLI" connect "$WORK/a.txt" --host 127.0.0.1 --port "$PORT" \
          --scheme "$scheme" --seed $(( 3000 + i )) --quiet)
    [[ "$out" == "100 differences" ]] || {
      echo "FAIL: parallel client $i ($scheme) got '$out'"
      exit 1
    }
  ) &
  pids+=($!)
done
fail=0
for pid in "${pids[@]}"; do
  wait "$pid" || fail=1
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
if [[ "$fail" != 0 ]]; then
  echo "FAIL: parallel stage"
  cat "$WORK/serve.log"
  exit 1
fi
sessions=$(grep -c "^session scheme=" "$WORK/serve.log" || true)
if [[ "$sessions" != 8 ]]; then
  echo "FAIL: server logged $sessions sessions, expected 8"
  cat "$WORK/serve.log"
  exit 1
fi
echo "smoke test passed: 8 parallel clients against one server"

# ---- stage 3: sharded server (--shards 4), 64 parallel clients ------------
: >"$WORK/serve.log"
"$CLI" serve "$WORK/b.txt" --port "$PORT" --shards 4 --max-sessions 64 \
  --stats 2>"$WORK/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 1 100); do
  grep -q "^serving " "$WORK/serve.log" && break
  sleep 0.1
done
grep -q "4 shards" "$WORK/serve.log" || {
  echo "FAIL: serve did not report 4 shards"
  cat "$WORK/serve.log"
  exit 1
}

pids=()
for i in $(seq 0 63); do
  scheme="${schemes_arr[$(( i % ${#schemes_arr[@]} ))]}"
  (
    out=$("$CLI" connect "$WORK/a.txt" --host 127.0.0.1 --port "$PORT" \
          --scheme "$scheme" --seed $(( 4000 + i )) --quiet)
    [[ "$out" == "100 differences" ]] || {
      echo "FAIL: sharded client $i ($scheme) got '$out'"
      exit 1
    }
  ) &
  pids+=($!)
done
fail=0
for pid in "${pids[@]}"; do
  wait "$pid" || fail=1
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
if [[ "$fail" != 0 ]]; then
  echo "FAIL: sharded stage"
  cat "$WORK/serve.log"
  exit 1
fi
sessions=$(grep -c "^session scheme=" "$WORK/serve.log" || true)
if [[ "$sessions" != 64 ]]; then
  echo "FAIL: sharded server logged $sessions sessions, expected 64"
  cat "$WORK/serve.log"
  exit 1
fi
echo "smoke test passed: 64 parallel clients against a 4-shard server"

# ---- stage 4: keyspace-sharded session on a 10^6-key set ------------------
# A near-identical million-key pair (2 differences): the Merkle pre-filter
# names the couple of differing keyspace shards, the estimate exchange is
# skipped, and the sharded session must land under the monolithic wire
# total (docs/WIRE_FORMAT.md section 2.5). wire= totals come from the
# connect summary line on stderr.
"$CLI" gen "$WORK/big_b.txt" 1000000 --seed 11 >/dev/null
"$CLI" mutate "$WORK/big_b.txt" "$WORK/big_a.txt" --drop 1 --add 1 \
  --seed 12 >/dev/null

run_big() {  # run_big <extra connect flags...> -> "<diffs>|<wire bytes>"
  : >"$WORK/serve.log"
  "$CLI" serve "$WORK/big_b.txt" --port "$PORT" --once 2>"$WORK/serve.log" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    grep -q "^serving " "$WORK/serve.log" && break
    sleep 0.1
  done
  local out
  out=$("$CLI" connect "$WORK/big_a.txt" --host 127.0.0.1 --port "$PORT" \
        --scheme pbs --quiet "$@" 2>"$WORK/connect.log")
  wait "$serve_pid" || { echo "FAIL: big-set serve side"; cat "$WORK/serve.log"; exit 1; }
  local wire
  wire=$(sed -n 's/.*wire=\([0-9]*\)B.*/\1/p' "$WORK/connect.log")
  echo "${out}|${wire}"
}

mono=$(run_big)
sharded=$(run_big --shards-keyspace 16)
mono_bytes="${mono##*|}"
sharded_bytes="${sharded##*|}"
for result in "$mono" "$sharded"; do
  if [[ "${result%%|*}" != "2 differences" ]]; then
    echo "FAIL: big-set reconcile got '${result%%|*}', expected '2 differences'"
    cat "$WORK/connect.log"
    exit 1
  fi
done
if [[ -z "$mono_bytes" || -z "$sharded_bytes" ]]; then
  echo "FAIL: could not parse wire= totals (mono='$mono' sharded='$sharded')"
  cat "$WORK/connect.log"
  exit 1
fi
if (( sharded_bytes >= mono_bytes )); then
  echo "FAIL: sharded session spent ${sharded_bytes}B, monolithic ${mono_bytes}B"
  exit 1
fi
echo "smoke test passed: --shards-keyspace 16 reconciled 10^6 keys in ${sharded_bytes}B vs ${mono_bytes}B monolithic"

# ---- stage 5: kill mid-sharded-sync, reconnect, resume --------------------
# The injector cuts the first connection before its 10th outgoing frame
# (mid sub-session stream); the client reconnects under --retries and
# re-attaches via RESUME. The resumed attempt must settle only the
# remaining shards, so its wire-last= bytes land strictly under a fresh
# session's wire= total, with the exact same difference.
: >"$WORK/serve.log"
"$CLI" serve "$WORK/b.txt" --port "$PORT" --stats 2>"$WORK/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 1 100); do
  grep -q "^serving " "$WORK/serve.log" && break
  sleep 0.1
done

out=$("$CLI" connect "$WORK/a.txt" --host 127.0.0.1 --port "$PORT" \
      --shards-keyspace 16 --seed 5001 --quiet 2>"$WORK/fresh.log")
fresh_bytes=$(sed -n 's/.*wire=\([0-9]*\)B.*/\1/p' "$WORK/fresh.log")
if [[ "$out" != "100 differences" || -z "$fresh_bytes" ]]; then
  echo "FAIL: fresh sharded session got '$out' (wire='$fresh_bytes')"
  cat "$WORK/fresh.log"
  exit 1
fi

out=$("$CLI" connect "$WORK/a.txt" --host 127.0.0.1 --port "$PORT" \
      --shards-keyspace 16 --seed 5001 --retries 3 \
      --fault disconnect_after_frames=9,once=1,seed=1 \
      --quiet 2>"$WORK/resume.log")
if [[ "$out" != "100 differences" ]]; then
  echo "FAIL: resumed session got '$out', expected '100 differences'"
  cat "$WORK/resume.log"
  exit 1
fi
grep -q "resilience: attempts=2 resumed=yes stale=no" "$WORK/resume.log" || {
  echo "FAIL: client did not reconnect+resume after the injected disconnect"
  cat "$WORK/resume.log"
  exit 1
}
resumed_bytes=$(sed -n 's/.*wire-last=\([0-9]*\)B.*/\1/p' "$WORK/resume.log")
if [[ -z "$resumed_bytes" ]]; then
  echo "FAIL: could not parse wire-last= from resume summary"
  cat "$WORK/resume.log"
  exit 1
fi
if (( resumed_bytes >= fresh_bytes )); then
  echo "FAIL: resumed attempt spent ${resumed_bytes}B, fresh session ${fresh_bytes}B"
  cat "$WORK/resume.log"
  exit 1
fi
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
echo "smoke test passed: mid-sync disconnect resumed in ${resumed_bytes}B vs ${fresh_bytes}B fresh"
