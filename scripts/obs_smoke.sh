#!/bin/sh
# obs_smoke.sh boots hdserve against a model artifact and asserts the
# observability and model-lifecycle surfaces end to end: a JSON
# "serving" log line with the bound address, a successful /v1/score
# round trip, a /metrics exposition carrying every metric family
# dashboards key on, shadow-model comparison via /admin/models/load,
# and a zero-downtime SIGHUP hot reload. Run via `make obs-smoke`.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

cd "$ROOT"
go build -o "$TMP/hdserve" ./cmd/hdserve

# Two artifacts over the same schema: model_a serves, model_b shadows.
"$TMP/hdserve" -write-demo "$TMP/model_a.bin" -dim 256 -seed 42 >/dev/null
"$TMP/hdserve" -write-demo "$TMP/model_b.bin" -dim 256 -seed 43 >/dev/null

"$TMP/hdserve" -model "$TMP/model_a.bin" -name smoke -addr 127.0.0.1:0 -log-format json \
    >"$TMP/stdout.log" 2>"$TMP/stderr.log" &
SERVER_PID=$!

# The "serving" slog line carries the real port (we bound port 0).
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*"msg":"serving".*"addr":"\([^"]*\)".*/\1/p' "$TMP/stdout.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "obs-smoke: hdserve exited early" >&2
        cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "obs-smoke: server never logged its address" >&2
    cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
    exit 1
fi
echo "obs-smoke: serving on $ADDR"

SCORE=$(curl -sSf -X POST "http://$ADDR/v1/score" \
    -H 'Content-Type: application/json' \
    -d '{"features":[2,120,70,25,100,30.5,0.4,40]}')
echo "obs-smoke: score response $SCORE"
case "$SCORE" in
*'"score"'*) ;;
*)
    echo "obs-smoke: /v1/score response missing score field" >&2
    exit 1
    ;;
esac

curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
for name in \
    hdserve_build_info \
    hdserve_requests_total \
    hdserve_records_scored_total \
    hdserve_request_duration_seconds_bucket \
    hdserve_stage_duration_seconds_bucket \
    hdfe_drift_psi \
    hdfe_drift_clamp_ratio \
    hdfe_drift_rows_observed_total \
    hdfe_drift_prediction_positive_ratio \
    hdfe_quality_baseline_accuracy \
    hdfe_quality_canary_healthy \
    hdfe_trace_sampled_total \
    hdfe_trace_dropped_total \
    hdfe_slo_target \
    hdfe_slo_burn_rate \
    hdfe_slo_state \
    hdfe_audit_events_total \
    hdfe_audit_dropped_total \
    hdfe_audit_chain_length \
    hdfe_prof_captures_total \
    hdfe_prof_capture_failures_total \
    hdfe_prof_ring_captures \
    hdfe_prof_watchdog_firing \
    hdfe_runtime_goroutines \
    hdfe_runtime_heap_inuse_bytes \
    hdfe_runtime_gc_pauses_seconds_bucket \
    hdfe_runtime_sched_latencies_seconds_bucket; do
    if ! grep -q "^$name" "$TMP/metrics.txt"; then
        echo "obs-smoke: /metrics missing $name" >&2
        cat "$TMP/metrics.txt" >&2
        exit 1
    fi
done

# Every pipeline stage must be represented after one scored request.
for stage in validate encode score respond; do
    if ! grep -q "stage=\"$stage\"" "$TMP/metrics.txt"; then
        echo "obs-smoke: /metrics missing stage=\"$stage\"" >&2
        exit 1
    fi
done

# An hdfe_drift_ series must be present with a live value (the scored
# request above has been folded into the input histograms), attributed
# to the boot model via the model_version label.
if ! grep -q '^hdfe_drift_rows_observed_total{model_version="1"} 1' "$TMP/metrics.txt"; then
    echo "obs-smoke: hdfe_drift_rows_observed_total did not count the scored request for model 1" >&2
    grep '^hdfe_drift_' "$TMP/metrics.txt" >&2 || true
    exit 1
fi

curl -sSf "http://$ADDR/debug/traces" | grep -q '"recent"' || {
    echo "obs-smoke: /debug/traces missing recent ring" >&2
    exit 1
}

# W3C trace context: an inbound traceparent is adopted (same trace ID on
# the response) even with span export disabled. The full export path is
# `make trace-smoke`'s job.
curl -sSf -D "$TMP/trace_hdr" -o /dev/null -X POST "http://$ADDR/v1/score" \
    -H 'Content-Type: application/json' \
    -H 'traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01' \
    -d '{"features":[2,120,70,25,100,30.5,0.4,40]}'
if ! grep -qi '^traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-' "$TMP/trace_hdr"; then
    echo "obs-smoke: response did not adopt the upstream trace ID" >&2
    cat "$TMP/trace_hdr" >&2
    exit 1
fi
echo "obs-smoke: traceparent adoption OK"

curl -sSf "http://$ADDR/debug/slo" | grep -q '"availability_state"' || {
    echo "obs-smoke: /debug/slo missing availability_state" >&2
    exit 1
}

# /debug/drift reports the full drift surface as JSON.
DRIFT=$(curl -sSf "http://$ADDR/debug/drift")
for field in '"input_drift_enabled":true' '"psi"' '"quality"' '"canary"'; do
    case "$DRIFT" in
    *"$field"*) ;;
    *)
        echo "obs-smoke: /debug/drift missing $field: $DRIFT" >&2
        exit 1
        ;;
    esac
done
echo "obs-smoke: /debug/drift OK"

# The delayed-label loop: feed the true label back using the request_id
# from the score response and confirm it joins.
REQ_ID=$(printf '%s' "$SCORE" | sed -n 's/.*"request_id":"\([^"]*\)".*/\1/p')
if [ -z "$REQ_ID" ]; then
    echo "obs-smoke: score response carries no request_id: $SCORE" >&2
    exit 1
fi
FEEDBACK=$(curl -sSf -X POST "http://$ADDR/v1/feedback" \
    -H 'Content-Type: application/json' \
    -d "{\"request_id\":\"$REQ_ID\",\"label\":1}")
case "$FEEDBACK" in
*'"matched":1'*) echo "obs-smoke: feedback joined ($FEEDBACK)" ;;
*)
    echo "obs-smoke: feedback did not join: $FEEDBACK" >&2
    exit 1
    ;;
esac

# --- Model lifecycle -------------------------------------------------

# The registry reports the boot model as version 1 with no swaps yet.
MODELS=$(curl -sSf "http://$ADDR/v1/models")
for field in '"version":1' '"name":"smoke"' '"swaps":0' '"sha256"'; do
    case "$MODELS" in
    *"$field"*) ;;
    *)
        echo "obs-smoke: /v1/models missing $field: $MODELS" >&2
        exit 1
        ;;
    esac
done
echo "obs-smoke: /v1/models OK"

# Install model_b as the shadow: it re-scores the same batches off the
# hot path and exports the canary comparison.
LOAD=$(curl -sSf -X POST "http://$ADDR/admin/models/load" \
    -H 'Content-Type: application/json' \
    -d "{\"path\":\"$TMP/model_b.bin\",\"name\":\"cand\",\"shadow\":true}")
case "$LOAD" in
*'"role":"shadow"'*) echo "obs-smoke: shadow installed ($LOAD)" ;;
*)
    echo "obs-smoke: shadow load failed: $LOAD" >&2
    exit 1
    ;;
esac

curl -sSf -X POST "http://$ADDR/v1/score" \
    -H 'Content-Type: application/json' \
    -d '{"features":[2,120,70,25,100,30.5,0.4,40]}' >/dev/null

# The shadow worker is asynchronous: poll until the comparison lands.
SHADOW_OK=""
for _ in $(seq 1 100); do
    curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
    if grep -q '^hdfe_shadow_records_total{model_version="2"} [1-9]' "$TMP/metrics.txt"; then
        SHADOW_OK=1
        break
    fi
    sleep 0.1
done
if [ -z "$SHADOW_OK" ]; then
    echo "obs-smoke: shadow never scored the live batch" >&2
    grep '^hdfe_shadow_' "$TMP/metrics.txt" >&2 || true
    exit 1
fi
for name in \
    'hdfe_shadow_disagreements_total{model_version="2"}' \
    'hdfe_shadow_disagreement_rate{model_version="2"}' \
    'hdfe_shadow_score_delta_mean_abs{model_version="2"}' \
    hdfe_shadow_dropped_batches_total; do
    if ! grep -q "^$name" "$TMP/metrics.txt"; then
        echo "obs-smoke: /metrics missing $name" >&2
        grep '^hdfe_shadow_' "$TMP/metrics.txt" >&2 || true
        exit 1
    fi
done
echo "obs-smoke: shadow comparison OK"

# SIGHUP re-reads -model and hot-swaps it in as version 3, with zero
# downtime for in-flight traffic.
kill -HUP "$SERVER_PID"
RELOAD_OK=""
for _ in $(seq 1 100); do
    MODELS=$(curl -sSf "http://$ADDR/v1/models")
    case "$MODELS" in
    *'"swaps":1'*)
        RELOAD_OK=1
        break
        ;;
    esac
    sleep 0.1
done
if [ -z "$RELOAD_OK" ]; then
    echo "obs-smoke: SIGHUP reload never landed: $MODELS" >&2
    cat "$TMP/stdout.log" >&2
    exit 1
fi
case "$MODELS" in
*'"version":3'*) ;;
*)
    echo "obs-smoke: reloaded registry has no version 3: $MODELS" >&2
    exit 1
    ;;
esac

# Traffic scored after the swap is attributed to the new version.
RESCORE=$(curl -sSf -X POST "http://$ADDR/v1/score" \
    -H 'Content-Type: application/json' \
    -d '{"features":[2,120,70,25,100,30.5,0.4,40]}')
case "$RESCORE" in
*'"model_version":3'*) ;;
*)
    echo "obs-smoke: post-reload score not attributed to version 3: $RESCORE" >&2
    exit 1
    ;;
esac
curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
if ! grep -q '^hdserve_model_swaps_total 1' "$TMP/metrics.txt"; then
    echo "obs-smoke: hdserve_model_swaps_total did not count the reload" >&2
    exit 1
fi
if ! grep -q 'model_version="3"' "$TMP/metrics.txt"; then
    echo "obs-smoke: no model_version=\"3\" labels after reload" >&2
    exit 1
fi
echo "obs-smoke: SIGHUP hot reload OK"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

# --- Overload protection ---------------------------------------------

# A second instance squeezed to a 1-record admission budget with a
# chaos-injected 300ms stall in the score stage: concurrent clients must
# split into one slow success and fast 429s carrying Retry-After, and
# the sheds must land in hdfe_shed_total{reason="queue_full"}.
"$TMP/hdserve" -model "$TMP/model_a.bin" -name shed -addr 127.0.0.1:0 -log-format json \
    -max-inflight 1 -chaos-spec 'score:p=1,delay=300ms' -chaos-seed 1 \
    >"$TMP/shed_stdout.log" 2>"$TMP/shed_stderr.log" &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*"msg":"serving".*"addr":"\([^"]*\)".*/\1/p' "$TMP/shed_stdout.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "obs-smoke: overload hdserve exited early" >&2
        cat "$TMP/shed_stdout.log" "$TMP/shed_stderr.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "obs-smoke: overload server never logged its address" >&2
    exit 1
fi
if ! grep -q '"msg":"chaos injection enabled"' "$TMP/shed_stdout.log"; then
    echo "obs-smoke: -chaos-spec did not log chaos injection enabled" >&2
    cat "$TMP/shed_stdout.log" >&2
    exit 1
fi

# Four concurrent clients against a 1-record budget held for 300ms.
# (wait on the curl PIDs specifically: a bare `wait` would also block on
# the background server.)
CURL_PIDS=""
for i in 1 2 3 4; do
    curl -s -D "$TMP/shed_hdr_$i" -o "$TMP/shed_body_$i" -X POST "http://$ADDR/v1/score" \
        -H 'Content-Type: application/json' \
        -d '{"features":[2,120,70,25,100,30.5,0.4,40]}' &
    CURL_PIDS="$CURL_PIDS $!"
done
for pid in $CURL_PIDS; do
    wait "$pid" || true
done

SHED_COUNT=0
for i in 1 2 3 4; do
    if grep -q '^HTTP/[0-9.]* 429' "$TMP/shed_hdr_$i"; then
        SHED_COUNT=$((SHED_COUNT + 1))
        if ! grep -qi '^Retry-After: [1-9]' "$TMP/shed_hdr_$i"; then
            echo "obs-smoke: 429 without a positive Retry-After header" >&2
            cat "$TMP/shed_hdr_$i" >&2
            exit 1
        fi
    fi
done
if [ "$SHED_COUNT" -eq 0 ]; then
    echo "obs-smoke: no 429s from 4 concurrent clients against -max-inflight 1" >&2
    for i in 1 2 3 4; do cat "$TMP/shed_hdr_$i" >&2; done
    exit 1
fi

curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
if ! grep -q '^hdfe_shed_total{reason="queue_full"} [1-9]' "$TMP/metrics.txt"; then
    echo "obs-smoke: hdfe_shed_total{reason=\"queue_full\"} did not count the sheds" >&2
    grep '^hdfe_shed_total' "$TMP/metrics.txt" >&2 || true
    exit 1
fi
if ! grep -q '^hdserve_inflight_records' "$TMP/metrics.txt"; then
    echo "obs-smoke: /metrics missing hdserve_inflight_records" >&2
    exit 1
fi
echo "obs-smoke: overload shed OK ($SHED_COUNT of 4 rejected)"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
echo "obs-smoke: OK"
