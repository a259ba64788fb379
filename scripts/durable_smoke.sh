#!/bin/sh
# durable_smoke.sh — end-to-end crash test of dsed's durability layer:
# build dsed, start it with a durable store directory on a scratch port,
# complete one async job, queue several more behind a single worker slot,
# SIGKILL the daemon mid-queue, restart it over the same directory, and
# assert zero lost jobs (every pre-crash ID reaches done) with at least one
# result served from the disk store instead of recomputed. A second dsed
# on the same store directory must refuse to start. See
# docs/DURABILITY.md.
set -eu

PORT="${DSED_DURABLE_PORT:-18462}"
BASE="http://127.0.0.1:$PORT"
TMP="${TMPDIR:-/tmp}/dse-durable-smoke.$$"
DUR="$TMP/durable"
mkdir -p "$TMP"

go build -o "$TMP/dsed" ./cmd/dsed

DSED_PID=""
cleanup() {
    [ -n "$DSED_PID" ] && kill "$DSED_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

start_dsed() {
    # One worker slot so queued jobs provably sit behind the running one
    # when the SIGKILL lands.
    "$TMP/dsed" -addr "127.0.0.1:$PORT" \
        -workers 1 -store-dir "$DUR" >>"$TMP/dsed.log" 2>&1 &
    DSED_PID=$!
}

wait_up() {
    i=0
    until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "durable-smoke: dsed did not come up on $BASE" >&2
            cat "$TMP/dsed.log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

# submit <body> — queue an async simulate job, print its ID.
submit() {
    out=$(curl -sf -X POST "$BASE/v1/simulate?async=1" -d "$1")
    id=$(printf '%s' "$out" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    if [ -z "$id" ]; then
        echo "durable-smoke: submit returned no job ID: $out" >&2
        exit 1
    fi
    printf '%s' "$id"
}

# job_status <id> — print the job's status field ("" if unknown).
job_status() {
    curl -s "$BASE/v1/jobs/$1" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p'
}

# await_done <id> — poll until the job is done; fail on failed/lost.
await_done() {
    i=0
    while :; do
        st=$(job_status "$1")
        case "$st" in
        done) return 0 ;;
        failed)
            echo "durable-smoke: job $1 failed" >&2
            curl -s "$BASE/v1/jobs/$1" >&2 || true
            exit 1
            ;;
        esac
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "durable-smoke: job $1 stuck in '${st:-lost}'" >&2
            exit 1
        fi
        sleep 0.1
    done
}

start_dsed
wait_up

# Phase 1: one job runs to completion (its result lands in the durable
# store), then a burst queues up and the daemon is SIGKILLed mid-queue.
J0=$(submit '{"systems":["coin:fair:x","coin:env:x"],"bound":4,"seed":1}')
await_done "$J0"

IDS="$J0"
for b in 5 6 7 8 9; do
    id=$(submit "{\"systems\":[\"coin:fair:x\",\"coin:env:x\"],\"bound\":$b,\"seed\":$b}")
    IDS="$IDS $id"
done

kill -9 "$DSED_PID"
wait "$DSED_PID" 2>/dev/null || true
DSED_PID=""

# Phase 2: restart over the same directory. The journal replay must
# restore or re-enqueue every accepted job — zero lost.
start_dsed
wait_up

for id in $IDS; do
    await_done "$id"
done

# The live daemon holds the store directory's lock: a second daemon on
# the same directory exits at startup instead of sharing it.
if "$TMP/dsed" -addr "127.0.0.1:$((PORT + 1))" -store-dir "$DUR" 2>"$TMP/second.log"; then
    echo "durable-smoke: a second dsed started on a locked store directory" >&2
    exit 1
fi
if ! grep -q 'locked by another process' "$TMP/second.log"; then
    echo "durable-smoke: second dsed failed without the lock message:" >&2
    cat "$TMP/second.log" >&2
    exit 1
fi

prom=$(curl -sf "$BASE/v1/metrics?format=prom") || {
    echo "durable-smoke: metrics fetch failed" >&2
    exit 1
}
hits=$(printf '%s\n' "$prom" | sed -n 's/^dse_durable_store_disk_hits \([0-9][0-9]*\)$/\1/p' | head -n1)
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "durable-smoke: no disk-served results after restart (disk_hits=${hits:-absent})" >&2
    exit 1
fi
replayed=$(printf '%s\n' "$prom" | sed -n 's/^dse_dsed_journal_replayed \([0-9][0-9]*\)$/\1/p' | head -n1)
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
    echo "durable-smoke: journal replay processed no records (replayed=${replayed:-absent})" >&2
    exit 1
fi

echo "durable-smoke: ok (zero lost jobs, disk hits: $hits, journal records replayed: $replayed)"
