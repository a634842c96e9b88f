#!/usr/bin/env bash
# End-to-end smoke test of the service layer: boots a 2-shard codad on an
# ephemeral TCP port, drives a session through coda_ctl (ping, shard-
# targeted pings, submits routed to both shards, status, cluster, metrics,
# a pipelined bench burst, drain, shutdown), scrapes GET /metrics over
# HTTP, then replays BOTH per-shard journals offline with coda_cli and
# requires each report to match the daemon's byte-for-byte. Then the
# recovery cycles: snapshot + kill -9 + --restore, automatic snapshots,
# kill -9 with no snapshot (--restore replays the journal alone), and a
# journal torn after a snapshot (--restore exits 1, both files untouched).
#
# Usage: scripts/serve_smoke.sh CODAD CODA_CTL CODA_CLI
#   The three arguments are the binary paths; ctest passes them via
#   $<TARGET_FILE:...> so the test follows the build directory around.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 CODAD CODA_CTL CODA_CLI" >&2
  exit 2
fi
CODAD=$1
CTL=$2
CLI=$3

workdir=$(mktemp -d /tmp/coda_serve_smoke.XXXXXX)
journal="$workdir/session.journal"
daemon_pid=""

cleanup() {
  if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "==> starting codad (2 shards, ephemeral port, non-default session)"
# Every knob off its default: the v2 journal header must carry the full
# config, and both shard replays below must reproduce it byte-for-byte
# (under v1 these replayed with default retry/failure/CODA knobs and
# silently diverged).
"$CODAD" --days 0.02 --policy coda --nodes 12 --port 0 --shards 2 \
         --journal "$journal" --speedup 20000 \
         --retry 1 --retry-backoff-base 60 --retry-backoff-max 600 \
         --retry-max 3 \
         --mtbf 600 --outage-s 300 --failure-seed 7 \
         --noise 0.02 --coda-multi-array 0 \
         >"$workdir/codad.log" 2>&1 &
daemon_pid=$!

# Wait for the listener banner ("codad listening on 127.0.0.1:PORT") in the
# given log and echo the port.
wait_for_port() {
  local log=$1 p=""
  for _ in $(seq 1 50); do
    p=$(grep -a -o 'listening on 127.0.0.1:[0-9]*' "$log" \
        2>/dev/null | head -1 | sed 's/.*://') || true
    [ -n "$p" ] && break
    sleep 0.1
  done
  [ -n "$p" ] || { echo "codad never bound a port" >&2; cat "$log" >&2; exit 1; }
  echo "$p"
}
port=$(wait_for_port "$workdir/codad.log")

echo "==> driving the session (port $port)"
"$CTL" ping --port "$port"
"$CTL" ping --port "$port" --shard 0 | grep -q 'shard=0'
"$CTL" ping --port "$port" --shard 1 | grep -q 'shard=1'
"$CTL" submit --port "$port" --kind cpu --cores 4 --work 900
gpu_id=$("$CTL" submit --port "$port" --kind gpu --model Resnet50 \
         --iters 1500 | sed -n 's/^OK id=\([0-9]*\) .*/\1/p')
[ -n "$gpu_id" ] || { echo "submit printed no job id" >&2; exit 1; }
# Model names match exactly, as in trace and SUBMIT rows: a wrong-case name
# is refused before anything is sent, with the known names listed.
if "$CTL" submit --port "$port" --kind gpu --model resnet50 --iters 10 \
     2>"$workdir/model.err"; then
  echo "submit accepted the model name 'resnet50'" >&2
  exit 1
fi
grep -q 'known models:.* Resnet50' "$workdir/model.err"
"$CTL" submit --port "$port" --kind cpu --cores 2 --work 120 --user-facing 1
"$CTL" status --port "$port" --id "$gpu_id" | grep -q "^OK id=$gpu_id state="
"$CTL" cluster --port "$port"
"$CTL" metrics --port "$port" --shard 1 >/dev/null

echo "==> pipelined bench burst (both shards)"
"$CTL" bench --port "$port" --connections 1 --duration 1 \
       --pipeline 8 --shards 2 | grep -q 'bench-json:'

if command -v curl >/dev/null 2>&1; then
  echo "==> scraping GET /metrics"
  scrape=$(curl -sf "http://127.0.0.1:$port/metrics")
  echo "$scrape" | grep -q 'coda_shard_virtual_time{shard="0"}'
  echo "$scrape" | grep -q 'coda_shard_virtual_time{shard="1"}'
  echo "$scrape" | grep -q '# EOF'
else
  echo "==> curl unavailable; skipping HTTP scrape"
fi

"$CTL" drain --port "$port"
"$CTL" shutdown --port "$port"
wait "$daemon_pid"
daemon_pid=""

for k in 0 1; do
  [ -s "$journal.shard$k" ] || { echo "shard $k journal missing" >&2; exit 1; }
  [ -s "$journal.shard$k.report" ] || { echo "shard $k report missing" >&2; exit 1; }
  head -1 "$journal.shard$k" | grep -q '^CODA_JOURNAL v2$' \
    || { echo "shard $k journal is not v2" >&2; exit 1; }
  grep -q '^config.retry.max_retries 3$' "$journal.shard$k" \
    || { echo "shard $k journal lost the retry config" >&2; exit 1; }
done

echo "==> replaying both shard journals offline"
for k in 0 1; do
  "$CLI" replay --journal "$journal.shard$k" \
         --expect-report "$journal.shard$k.report"
done

# ---- snapshot / kill -9 / --restore cycle (single shard, auth enabled) ----
echo "==> booting an authenticated daemon for the snapshot cycle"
journal2="$workdir/restore.journal"
token=smoketoken
"$CODAD" --days 0.02 --policy coda --nodes 8 --port 0 \
         --journal "$journal2" --journal-fsync 1 --speedup 20000 \
         --auth-token "$token" >"$workdir/codad2.log" 2>&1 &
daemon_pid=$!
port2=$(wait_for_port "$workdir/codad2.log")

echo "==> auth gate (port $port2)"
"$CTL" ping --port "$port2"   # PING needs no token
if "$CTL" cluster --port "$port2" >/dev/null 2>&1; then
  echo "unauthenticated CLUSTER was not refused" >&2; exit 1
fi
"$CTL" submit --port "$port2" --auth-token "$token" \
       --kind cpu --cores 4 --work 900
"$CTL" submit --port "$port2" --auth-token "$token" \
       --kind gpu --model Resnet50 --iters 1500

echo "==> mid-session snapshot, one more submit, then kill -9"
"$CTL" snapshot --port "$port2" --auth-token "$token" | grep -q 'seq=1'
[ -s "$journal2.SNAP.1" ] || { echo "snapshot file missing" >&2; exit 1; }
"$CTL" submit --port "$port2" --auth-token "$token" \
       --kind cpu --cores 2 --work 600
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "==> offline restore-check on the crashed session"
"$CTL" restore-check --snapshot "$journal2.SNAP.1" --journal "$journal2" \
  | grep -q 'restore-check OK'

echo "==> restarting with --restore and draining"
"$CODAD" --restore 1 --journal "$journal2" --journal-fsync 1 --port 0 \
         --auth-token "$token" >"$workdir/codad3.log" 2>&1 &
daemon_pid=$!
port3=$(wait_for_port "$workdir/codad3.log")
"$CTL" drain --port "$port3" --auth-token "$token"
"$CTL" shutdown --port "$port3" --auth-token "$token"
wait "$daemon_pid"
daemon_pid=""
[ -s "$journal2.report" ] || { echo "restored report missing" >&2; exit 1; }

echo "==> replaying snapshot + journal tail offline; must match the report"
"$CLI" replay --snapshot "$journal2.SNAP.1" --journal "$journal2" \
       --expect-report "$journal2.report"

# ---- automatic snapshot cycle (--snapshot-every-sim-hours) ----
echo "==> booting a daemon with automatic snapshots"
journal3="$workdir/auto.journal"
"$CODAD" --days 0.02 --policy coda --nodes 8 --port 0 \
         --journal "$journal3" --speedup 20000 \
         --snapshot-every-sim-hours 0.05 >"$workdir/codad4.log" 2>&1 &
daemon_pid=$!
port4=$(wait_for_port "$workdir/codad4.log")
"$CTL" submit --port "$port4" --kind cpu --cores 4 --work 900
"$CTL" submit --port "$port4" --kind gpu --model Resnet50 --iters 1500

echo "==> waiting for an automatic snapshot + journal truncation"
snap=""
for _ in $(seq 1 50); do
  snap=$(ls "$journal3".SNAP.* 2>/dev/null | sort -V | tail -1) || true
  [ -n "$snap" ] && break
  sleep 0.1
done
[ -n "$snap" ] || { echo "auto-snapshot never appeared" >&2; \
                    cat "$workdir/codad4.log" >&2; exit 1; }

"$CTL" drain --port "$port4"
"$CTL" shutdown --port "$port4"
wait "$daemon_pid"
daemon_pid=""
[ -s "$journal3.report" ] || { echo "auto-cycle report missing" >&2; exit 1; }

echo "==> replaying latest auto snapshot + truncated journal tail"
snap=$(ls "$journal3".SNAP.* | sort -V | tail -1)
"$CLI" replay --snapshot "$snap" --journal "$journal3" \
       --expect-report "$journal3.report"

# ---- kill -9 with no snapshot: --restore replays the journal alone ----
echo "==> kill -9 before any snapshot, then --restore from the journal"
journal4="$workdir/nosnap.journal"
"$CODAD" --days 0.02 --policy coda --nodes 8 --port 0 \
         --journal "$journal4" --speedup 20000 >"$workdir/codad5.log" 2>&1 &
daemon_pid=$!
port5=$(wait_for_port "$workdir/codad5.log")
"$CTL" submit --port "$port5" --kind cpu --cores 4 --work 900
"$CTL" submit --port "$port5" --kind gpu --model Resnet50 --iters 1500
"$CTL" submit --port "$port5" --kind cpu --cores 2 --work 600
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
"$CODAD" --restore 1 --journal "$journal4" --port 0 \
         >"$workdir/codad6.log" 2>&1 &
daemon_pid=$!
port6=$(wait_for_port "$workdir/codad6.log")
"$CTL" drain --port "$port6"
"$CTL" shutdown --port "$port6"
wait "$daemon_pid"
daemon_pid=""
[ "$(grep -c '^S ' "$journal4")" -eq 3 ] \
  || { echo "--restore lost acknowledged S lines" >&2; exit 1; }
"$CLI" replay --journal "$journal4" --expect-report "$journal4.report"

# ---- kill -9 that tears the journal after a snapshot: fail closed ----
echo "==> torn journal tail after a snapshot: --restore must refuse"
journal5="$workdir/torn.journal"
"$CODAD" --days 0.02 --policy coda --nodes 8 --port 0 \
         --journal "$journal5" --speedup 20000 >"$workdir/codad7.log" 2>&1 &
daemon_pid=$!
port7=$(wait_for_port "$workdir/codad7.log")
"$CTL" snapshot --port "$port7" | grep -q 'seq=1'
"$CTL" submit --port "$port7" --kind cpu --cores 4 --work 900
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
truncate -s -7 "$journal5"
cp "$journal5" "$workdir/torn.journal.before"
cp "$journal5.SNAP.1" "$workdir/torn.snap.before"
rc=0
timeout 20 "$CODAD" --restore 1 --journal "$journal5" --port 0 \
        >"$workdir/codad8.log" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "--restore on a torn journal exited $rc" >&2; \
                     cat "$workdir/codad8.log" >&2; exit 1; }
grep -a -q 'cannot restore' "$workdir/codad8.log"
cmp "$journal5" "$workdir/torn.journal.before"
cmp "$journal5.SNAP.1" "$workdir/torn.snap.before"

echo "==> serve smoke clean"
