#!/usr/bin/env bash
#
# Service byte-identity smoke: a didt_client replay of a didt_campaign
# result document through a didt_serve daemon must reproduce the file
# byte for byte — at --jobs 1 and --jobs 4, for two requests served at
# once, and with socket failpoints armed (the faulted request becomes a
# per-request error; the daemon still drains cleanly and exits 0 on
# SIGTERM).
#
#   BUILD_DIR=build scripts/serve_smoke.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
CAMPAIGN="$BUILD_DIR/tools/didt_campaign"
SERVE="$BUILD_DIR/tools/didt_serve"
CLIENT="$BUILD_DIR/tools/didt_client"
for tool in "$CAMPAIGN" "$SERVE" "$CLIENT"; do
    [[ -x "$tool" ]] || { echo "missing tool: $tool" >&2; exit 1; }
done

WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill -KILL "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

SPEC_ARGS=(--benchmarks gzip,mcf --impedances 1.0,1.2
           --instructions 30000 --window 128 --levels 6)
SOCK="$WORK/didt.sock"

# Start a daemon, wait for its socket, remember its PID.
start_server() {
    rm -f "$SOCK"
    "$SERVE" --socket "$SOCK" "$@" > "$WORK/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 100); do
        [[ -S "$SOCK" ]] && return 0
        kill -0 "$SERVE_PID" 2>/dev/null || break
        sleep 0.1
    done
    echo "didt_serve did not come up:" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}

# SIGTERM the daemon and require a graceful exit 0 with drain output.
stop_server() {
    kill -TERM "$SERVE_PID"
    local status=0
    wait "$SERVE_PID" || status=$?
    SERVE_PID=""
    if [[ $status -ne 0 ]]; then
        echo "FAIL: didt_serve exited $status on SIGTERM" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    grep -q "drained" "$WORK/serve.log" || {
        echo "FAIL: no drain message in daemon log" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    }
}

echo "=== reference batch campaign (didt_campaign --jobs 1) ==="
"$CAMPAIGN" --jobs 1 "${SPEC_ARGS[@]}" --quiet \
    --json "$WORK/campaign.json"

for jobs in 1 4; do
    echo "=== replay through didt_serve --jobs $jobs ==="
    # A fresh daemon per job count: the replayed cache section must
    # describe a cold shared tier, exactly like the batch run's.
    start_server --jobs "$jobs"
    "$CLIENT" ping --socket "$SOCK"
    "$CLIENT" replay "$WORK/campaign.json" --socket "$SOCK" \
        --out "$WORK/replay_j$jobs.json"
    cmp "$WORK/campaign.json" "$WORK/replay_j$jobs.json"
    echo "replay at --jobs $jobs is byte-identical"
    stop_server
done

echo "=== chip-cell replay leg (--cores 2, --mix) ==="
# A 2-core chip campaign exercises the chip-sweep spec round trip
# (cores/mixes/l2 fields) and the per-core trace production path; the
# served replay must reproduce the batch bytes exactly.
"$CAMPAIGN" --jobs 1 --mix inphase-gzip,staggered-gzip --cores 2 \
    --impedances 1.0,1.2 --instructions 30000 --window 128 --levels 6 \
    --quiet --json "$WORK/chip_campaign.json"
start_server --jobs 2
"$CLIENT" replay "$WORK/chip_campaign.json" --socket "$SOCK" \
    --out "$WORK/chip_replay.json"
cmp "$WORK/chip_campaign.json" "$WORK/chip_replay.json"
echo "2-core chip replay is byte-identical"
stop_server

echo "=== concurrent replay leg (plain and chip at once) ==="
# Two requests run at the same time on one pool. Their specs share no
# trace, so each cache section is a cold one and must match its batch
# file byte for byte.
start_server --jobs 2
"$CLIENT" replay "$WORK/campaign.json" --socket "$SOCK" \
    --out "$WORK/concurrent_plain.json" &
PLAIN_PID=$!
"$CLIENT" replay "$WORK/chip_campaign.json" --socket "$SOCK" \
    --out "$WORK/concurrent_chip.json"
wait "$PLAIN_PID"
cmp "$WORK/campaign.json" "$WORK/concurrent_plain.json"
cmp "$WORK/chip_campaign.json" "$WORK/concurrent_chip.json"
echo "concurrent plain and chip replays are byte-identical"
stop_server

echo "=== Monte Carlo cell replay leg (--mc-draws 8) ==="
# A variation-aware campaign exercises the mc_* spec round trip and
# the per-draw cell path; the served replay must reproduce the batch
# bytes — yield curves included — exactly.
"$CAMPAIGN" --jobs 1 "${SPEC_ARGS[@]}" --mc-draws 8 --mc-seed 7 \
    --mc-sigma 0.08 --quiet --json "$WORK/mc_campaign.json"
start_server --jobs 2
"$CLIENT" replay "$WORK/mc_campaign.json" --socket "$SOCK" \
    --out "$WORK/mc_replay.json"
cmp "$WORK/mc_campaign.json" "$WORK/mc_replay.json"
echo "Monte Carlo replay is byte-identical"
stop_server

echo "=== socket failpoint leg (serve.decode=nth:1) ==="
start_server --jobs 2 --failpoints 'serve.decode=nth:1'
# The first request hits the injected decode fault and must surface as
# a typed per-request error (client exit 3), not a daemon crash.
status=0
"$CLIENT" replay "$WORK/campaign.json" --socket "$SOCK" \
    --out "$WORK/replay_faulted.json" 2> "$WORK/fault.err" || status=$?
if [[ $status -ne 3 ]]; then
    echo "FAIL: faulted replay exited $status, want 3" >&2
    cat "$WORK/fault.err" >&2
    exit 1
fi
grep -q "bad_request" "$WORK/fault.err"
# The daemon survived; the retry reproduces the reference bytes.
"$CLIENT" replay "$WORK/campaign.json" --socket "$SOCK" \
    --out "$WORK/replay_retry.json"
cmp "$WORK/campaign.json" "$WORK/replay_retry.json"
echo "faulted request was a per-request error; retry is byte-identical"
stop_server

echo "=== live telemetry leg (watch / stats --prom / events) ==="
METRICS_CHECK="$BUILD_DIR/tools/didt_metrics_check"
[[ -x "$METRICS_CHECK" ]] || {
    echo "missing tool: $METRICS_CHECK" >&2; exit 1; }
start_server --jobs 2 --events-capacity 256
# Replay in the background so the watch stream sees real work...
"$CLIENT" replay "$WORK/campaign.json" --socket "$SOCK" \
    --out "$WORK/replay_watched.json" --timings \
    2> "$WORK/timings.err" &
REPLAY_PID=$!
# ...while a subscriber renders a bounded stream of status lines.
"$CLIENT" watch --socket "$SOCK" --interval-ms 100 --count 5 \
    > "$WORK/watch.out"
wait "$REPLAY_PID"
[[ $(wc -l < "$WORK/watch.out") -eq 5 ]] || {
    echo "FAIL: want 5 watch lines, got:" >&2
    cat "$WORK/watch.out" >&2
    exit 1
}
grep -q "conns " "$WORK/watch.out"
grep -q "queue " "$WORK/watch.out"
grep -q "cells " "$WORK/watch.out"
grep -q "p99 " "$WORK/watch.out"
grep -q "execute_ms" "$WORK/timings.err"
# Telemetry must not perturb result bytes (timings ride the envelope).
cmp "$WORK/campaign.json" "$WORK/replay_watched.json"
echo "watch stream rendered 5 frames; replay under watch is byte-identical"

"$CLIENT" stats --prom --socket "$SOCK" > "$WORK/stats.prom"
"$METRICS_CHECK" --prom-input "$WORK/stats.prom"
grep -q "^didt_serve_requests_total " "$WORK/stats.prom"
grep -q "^didt_serve_request_ms_bucket{le=\"+Inf\"} " "$WORK/stats.prom"
grep -q "^didt_campaign_cells_total " "$WORK/stats.prom"
echo "prometheus exposition validated"

"$CLIENT" events --socket "$SOCK" > "$WORK/events.out"
grep -q "request_admitted" "$WORK/events.out"
grep -q "request_completed" "$WORK/events.out"
stop_server
# The drain dumps the retained event ring for post-mortems.
grep -q "didt_serve: event .* request_completed" "$WORK/serve.log"
echo "event ring queried live and dumped on SIGTERM"

echo "=== client-side write failpoint (transport error, exit 3) ==="
start_server --jobs 2
status=0
"$CLIENT" ping --socket "$SOCK" --failpoints 'serve.write=nth:1' \
    2> /dev/null || status=$?
if [[ $status -ne 3 ]]; then
    echo "FAIL: client write fault exited $status, want 3" >&2
    exit 1
fi
"$CLIENT" ping --socket "$SOCK"
stop_server

echo "=== serve smoke passed ==="
