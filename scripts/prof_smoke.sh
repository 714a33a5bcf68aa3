#!/bin/sh
# prof_smoke.sh boots hdserve with a fast continuous-profiling cadence,
# drives batch-scoring load, and asserts the self-observability surface
# end to end: a scheduled CPU capture lands in the ring and downloads as
# a gzipped pprof blob in which `go tool pprof -top` names an encode/hv
# frame, the hdfe_runtime_* and hdfe_prof_* metric families scrape, and
# the watchdogs report state at /debug/prof. Run via `make prof-smoke`.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

cd "$ROOT"
go build -o "$TMP/hdserve" ./cmd/hdserve

# A larger-than-default model so each batch burns enough CPU for the
# profiler's sampler to catch encode/score frames.
"$TMP/hdserve" -write-demo "$TMP/model.bin" -dim 4096 -seed 42 >/dev/null

"$TMP/hdserve" -model "$TMP/model.bin" -name prof-smoke -addr 127.0.0.1:0 \
    -log-format json -prof-interval 500ms -prof-cpu-ms 300 \
    >"$TMP/stdout.log" 2>"$TMP/stderr.log" &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*"msg":"serving".*"addr":"\([^"]*\)".*/\1/p' "$TMP/stdout.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "prof-smoke: hdserve exited early" >&2
        cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "prof-smoke: server never logged its address" >&2
    cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
    exit 1
fi
echo "prof-smoke: serving on $ADDR"

# A 256-record batch body: the same row repeated keeps the JSON cheap to
# build in shell while still exercising the vectorized encode path.
ROW='[2,120,70,25,100,30.5,0.4,40]'
BODY='{"records":['
i=0
while [ $i -lt 256 ]; do
    [ $i -gt 0 ] && BODY="$BODY,"
    BODY="$BODY$ROW"
    i=$((i + 1))
done
BODY="$BODY]}"
printf '%s' "$BODY" >"$TMP/batch.json"

# Drive load in the background so the scheduled CPU windows observe a
# busy encode/score path.
(
    while :; do
        curl -s -o /dev/null -X POST "http://$ADDR/v1/score/batch" \
            -H 'Content-Type: application/json' --data-binary @"$TMP/batch.json" || exit 0
    done
) &
LOAD_PID=$!

# Poll /debug/prof and download each new CPU capture until `go tool
# pprof -top` on one names a hot-path frame (internal/encode or
# internal/hv).
CAPTURE_ID=""
SEEN=" "
for _ in $(seq 1 300); do
    curl -sSf "http://$ADDR/debug/prof" >"$TMP/prof.json" 2>/dev/null || {
        sleep 0.1
        continue
    }
    for id in $(grep -o '"id":[0-9]*,"kind":"cpu"' "$TMP/prof.json" | sed 's/"id":\([0-9]*\).*/\1/'); do
        case "$SEEN" in *" $id "*) continue ;; esac
        SEEN="$SEEN$id "
        # A 404 means the ring evicted it since the listing.
        curl -sSf "http://$ADDR/debug/prof/$id" -o "$TMP/capture.pb.gz" 2>/dev/null || continue
        if go tool pprof -top "$TMP/capture.pb.gz" 2>/dev/null | grep -q 'internal/encode\|internal/hv'; then
            CAPTURE_ID=$id
            break
        fi
    done
    [ -n "$CAPTURE_ID" ] && break
    sleep 0.1
done
kill "$LOAD_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
if [ -z "$CAPTURE_ID" ]; then
    echo "prof-smoke: no CPU capture with an encode/hv frame within 30s" >&2
    cat "$TMP/prof.json" >&2
    exit 1
fi
echo "prof-smoke: hot-path CPU capture id=$CAPTURE_ID"

# The index reports the effective cadence and the watchdog states.
for field in '"interval_ms":500' '"watchdogs"' '"goroutines"' '"heap_slope"' '"gc_pause"'; do
    if ! grep -q "$field" "$TMP/prof.json"; then
        echo "prof-smoke: /debug/prof missing $field" >&2
        cat "$TMP/prof.json" >&2
        exit 1
    fi
done

# The capture downloaded as the gzipped pprof blob runtime/pprof wrote.
MAGIC=$(od -An -tx1 -N2 "$TMP/capture.pb.gz" | tr -d ' ')
if [ "$MAGIC" != "1f8b" ]; then
    echo "prof-smoke: download is not gzip (magic $MAGIC)" >&2
    exit 1
fi
echo "prof-smoke: capture downloads as gzip ($(wc -c <"$TMP/capture.pb.gz") bytes)"

# A bogus capture id is a clean 404, not a crash.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/debug/prof/999999")
if [ "$CODE" != "404" ]; then
    echo "prof-smoke: missing capture returned $CODE, want 404" >&2
    exit 1
fi

# The runtime and profiler metric families scrape.
curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
for name in \
    hdfe_prof_captures_total \
    hdfe_prof_capture_failures_total \
    hdfe_prof_ring_captures \
    hdfe_prof_watchdog_firing \
    hdfe_prof_watchdog_triggers_total \
    hdfe_runtime_goroutines \
    hdfe_runtime_heap_inuse_bytes \
    hdfe_runtime_heap_goal_bytes \
    hdfe_runtime_mem_total_bytes \
    hdfe_runtime_mutex_wait_seconds_total \
    hdfe_runtime_gc_cycles_total \
    hdfe_runtime_gc_pauses_seconds_bucket \
    hdfe_runtime_sched_latencies_seconds_bucket; do
    if ! grep -q "^$name" "$TMP/metrics.txt"; then
        echo "prof-smoke: /metrics missing $name" >&2
        grep '^hdfe_prof_\|^hdfe_runtime_' "$TMP/metrics.txt" >&2 || true
        exit 1
    fi
done
if ! grep -q '^hdfe_prof_captures_total{kind="cpu"} [1-9]' "$TMP/metrics.txt"; then
    echo "prof-smoke: hdfe_prof_captures_total{kind=\"cpu\"} never incremented" >&2
    grep '^hdfe_prof_' "$TMP/metrics.txt" >&2 || true
    exit 1
fi
echo "prof-smoke: metric families OK"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
echo "prof-smoke: OK"
