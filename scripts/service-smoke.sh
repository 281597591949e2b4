#!/bin/sh
# service-smoke: end-to-end exercise of decepticond, the campaign daemon.
#
#  1. Control: a daemon runs two campaigns (two tenants) to completion
#     and drains cleanly on SIGTERM.
#  2. Crash/resume: a second daemon on a fresh state dir gets the same
#     two campaigns, is SIGTERMed mid-extraction (checkpoints on disk),
#     and a restarted daemon on the same dir must finish both with
#     results.ndjson, streamed bytes, and summaries BYTE-IDENTICAL to
#     the control — same clones, same Stats, zero re-paid hammer rounds.
#  3. Load: campaignload drives 100 concurrent campaigns through the
#     bounded queue (max depth asserted), with one finite-budget tenant
#     proving per-tenant enforcement, order-checked NDJSON streams, and
#     a bounded daemon heap.
#
# Both daemons open one pre-built -store zoo, so every run starts from
# the same population (each model's content key keeps it honest).
set -eu

GO="${GO:-go}"
DIR=.service-smoke
rm -rf "$DIR"; mkdir -p "$DIR"

$GO build -o "$DIR/decepticond" ./cmd/decepticond
$GO build -o "$DIR/campaignload" ./cmd/campaignload
$GO run ./cmd/zoo -scale tiny -store "$DIR/zoo" >/dev/null

DPID=""
start_daemon() { # $1 = state dir, rest = extra flags
  state="$1"; shift
  mkdir -p "$state"
  rm -f "$state/decepticond.addr"
  "$DIR/decepticond" -scale tiny -store "$DIR/zoo" -dir "$state" \
    -addr localhost:0 "$@" &
  DPID=$!
  i=0
  until [ -s "$state/decepticond.addr" ]; do
    i=$((i+1))
    if [ $i -gt 600 ]; then echo "service-smoke: daemon did not start" >&2; exit 1; fi
    sleep 0.1
  done
}
stop_daemon() {
  kill -TERM "$DPID"
  wait "$DPID"
}
CL="$DIR/campaignload -timeout 120s"

echo "service-smoke: control run (uninterrupted)"
start_daemon "$DIR/control" -runners 2 -tenants 'alice:0:2,bob:0:1'
AF="$DIR/control/decepticond.addr"
$CL -addr-file "$AF" -submit -tenant alice -seed 3 >/dev/null
$CL -addr-file "$AF" -submit -tenant bob -seed 4 >/dev/null
$CL -addr-file "$AF" -wait c000001 >/dev/null
$CL -addr-file "$AF" -wait c000002 >/dev/null
$CL -addr-file "$AF" -summary c000001 >"$DIR/control.sum"
$CL -addr-file "$AF" -summary c000002 >>"$DIR/control.sum"
$CL -addr-file "$AF" -stream c000001 >"$DIR/control.c1.stream" 2>/dev/null
stop_daemon

echo "service-smoke: kill mid-campaign, restart, resume"
start_daemon "$DIR/state" -runners 2 -tenants 'alice:0:2,bob:0:1'
AF="$DIR/state/decepticond.addr"
$CL -addr-file "$AF" -submit -tenant alice -seed 3 >/dev/null
$CL -addr-file "$AF" -submit -tenant bob -seed 4 >/dev/null
# SIGTERM the moment an extraction checkpoint exists: the daemon dies
# with campaigns genuinely in flight.
i=0
until ls "$DIR/state/campaigns"/*/ckpt/*.ckpt >/dev/null 2>&1; do
  i=$((i+1))
  if [ $i -gt 600 ]; then echo "service-smoke: no checkpoint appeared" >&2; exit 1; fi
  sleep 0.05
done
stop_daemon

start_daemon "$DIR/state" -runners 2 -tenants 'alice:0:2,bob:0:1'
$CL -addr-file "$AF" -wait c000001 >/dev/null
$CL -addr-file "$AF" -wait c000002 >/dev/null
$CL -addr-file "$AF" -summary c000001 >"$DIR/resumed.sum"
$CL -addr-file "$AF" -summary c000002 >>"$DIR/resumed.sum"
$CL -addr-file "$AF" -stream c000001 >"$DIR/resumed.c1.stream" 2>/dev/null
stop_daemon

# Byte-identical resume: the durable result files, the bytes a client
# streams back, and the deterministic campaign summaries (which carry
# total_oracle_attempts and total_hammer_rounds — equality means zero
# re-paid work).
cmp "$DIR/control/campaigns/c000001/results.ndjson" "$DIR/state/campaigns/c000001/results.ndjson"
cmp "$DIR/control/campaigns/c000002/results.ndjson" "$DIR/state/campaigns/c000002/results.ndjson"
cmp "$DIR/control.c1.stream" "$DIR/resumed.c1.stream"
cmp "$DIR/control.sum" "$DIR/resumed.sum"
echo "service-smoke: resume is byte-identical"

echo "service-smoke: load (100 concurrent campaigns, bounded queue, budget tenant)"
start_daemon "$DIR/load" -runners 4 -queue-limit 8 \
  -tenants 'cap:30000:1' -retry-after 1s
$DIR/campaignload -timeout 600s -addr-file "$DIR/load/decepticond.addr" \
  -load 100 -concurrency 32 -tenants cap,free -victims-per 1 \
  -queue-limit 8 -max-heap-mb 2048
stop_daemon

rm -rf "$DIR"
echo "service-smoke: ok"
