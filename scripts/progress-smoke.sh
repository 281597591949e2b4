#!/bin/sh
# progress-smoke: end-to-end exercise of the campaign telemetry surfaces.
#
#  1. Control: a daemon runs one campaign to completion; its progress
#     document reports fraction exactly 1, its event ledger validates
#     (monotonic seq, legal transitions, unique terminal), and the
#     follow-mode /events stream replays it seq-checked.
#  2. Interrupt/resume: the same campaign is interrupted mid-campaign by
#     its tenant's one-attempt budget (the deterministic interrupt door:
#     the charge trips at the first delivered victim, so no timing can
#     let the campaign finish first), the daemon is SIGTERMed and
#     restarted with an unlimited budget, and the campaign resumes. The
#     single ledger must span both processes (interrupted + resumed
#     present, one terminal) and the final progress line must be
#     BYTE-IDENTICAL to the control.
#  3. Worker invariance: the same campaign with 4 victim workers must
#     produce the same progress bytes again.
#  4. decepticontop -once renders the live state: the campaign row at
#     100.0% and the tenant budget table.
set -eu

GO="${GO:-go}"
DIR=.progress-smoke
rm -rf "$DIR"; mkdir -p "$DIR"

$GO build -o "$DIR/decepticond" ./cmd/decepticond
$GO build -o "$DIR/campaignload" ./cmd/campaignload
$GO build -o "$DIR/metricscheck" ./cmd/metricscheck
$GO build -o "$DIR/decepticontop" ./cmd/decepticontop
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
    if [ $i -gt 600 ]; then echo "progress-smoke: daemon did not start" >&2; exit 1; fi
    sleep 0.1
  done
}
stop_daemon() {
  kill -TERM "$DPID"
  wait "$DPID"
}
CL="$DIR/campaignload -timeout 120s"

echo "progress-smoke: control run (1 worker, uninterrupted)"
start_daemon "$DIR/control" -runners 1 -tenants 'ops:0:1'
AF="$DIR/control/decepticond.addr"
$CL -addr-file "$AF" -submit -tenant ops -seed 3 -workers 1 >/dev/null
$CL -addr-file "$AF" -events c000001 >"$DIR/control.events" 2>/dev/null
$CL -addr-file "$AF" -wait c000001 >/dev/null
$CL -addr-file "$AF" -progress c000001 >"$DIR/control.progress"
"$DIR/decepticontop" -addr-file "$AF" -once >"$DIR/top.frame"
stop_daemon
"$DIR/metricscheck" -events "$DIR/control/campaigns/c000001/events.ndjson"
grep -q '"fraction":1,' "$DIR/control.progress" || {
  echo "progress-smoke: control progress not exactly 1:"; cat "$DIR/control.progress"; exit 1; }
# The follow-mode stream saw the full history through the terminal event.
grep -q '"event":"done"' "$DIR/control.events"
"$DIR/metricscheck" -events "$DIR/control.events"

echo "progress-smoke: interrupt by budget, restart, resume"
start_daemon "$DIR/state" -runners 1 -tenants 'ops:1:1'
AF="$DIR/state/decepticond.addr"
$CL -addr-file "$AF" -submit -tenant ops -seed 3 -workers 1 >/dev/null
$CL -addr-file "$AF" -wait c000001 -until stopped >/dev/null
stop_daemon
start_daemon "$DIR/state" -runners 1 -tenants 'ops:0:1'
$CL -addr-file "$AF" -wait c000001 >/dev/null
$CL -addr-file "$AF" -progress c000001 >"$DIR/resumed.progress"
stop_daemon
LEDGER="$DIR/state/campaigns/c000001/events.ndjson"
"$DIR/metricscheck" -events "$LEDGER"
grep -q '"event":"interrupted"' "$LEDGER" || {
  echo "progress-smoke: resumed ledger never interrupted" >&2; exit 1; }
grep -q '"event":"resumed"' "$LEDGER" || {
  echo "progress-smoke: resumed ledger never resumed" >&2; exit 1; }
cmp "$DIR/control.progress" "$DIR/resumed.progress"
echo "progress-smoke: interrupt/resume progress is byte-identical"

echo "progress-smoke: worker invariance (4 victim workers)"
start_daemon "$DIR/wide" -runners 1 -tenants 'ops:0:1'
AF="$DIR/wide/decepticond.addr"
$CL -addr-file "$AF" -submit -tenant ops -seed 3 -workers 4 >/dev/null
$CL -addr-file "$AF" -wait c000001 >/dev/null
$CL -addr-file "$AF" -progress c000001 >"$DIR/wide.progress"
stop_daemon
cmp "$DIR/control.progress" "$DIR/wide.progress"
echo "progress-smoke: 4-worker progress is byte-identical"

# The dashboard frame captured while the control daemon was live: the
# campaign row at 100.0% and the tenant budget table.
grep -q 'c000001' "$DIR/top.frame" || { echo "progress-smoke: no campaign row:"; cat "$DIR/top.frame"; exit 1; }
grep -q '100.0%' "$DIR/top.frame" || { echo "progress-smoke: campaign not at 100%:"; cat "$DIR/top.frame"; exit 1; }
grep -q 'ops' "$DIR/top.frame" || { echo "progress-smoke: no tenant row:"; cat "$DIR/top.frame"; exit 1; }

rm -rf "$DIR"
echo "progress-smoke: ok"
