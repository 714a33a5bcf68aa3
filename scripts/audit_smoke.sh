#!/bin/sh
# audit_smoke.sh boots hdserve with the decision audit trail enabled,
# drives scored, explained, shed, and feedback traffic, then asserts the
# trail end to end: the hdfe_audit_* metric families are live, the
# /debug/audit ring carries the recent decisions, `hdaudit verify` walks
# an unbroken hash chain after shutdown, `hdaudit replay` reproduces
# every audited score bit-identically from the model artifact, and a
# tampered segment fails verification. Run via `make audit-smoke`.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

cd "$ROOT"
go build -o "$TMP/hdserve" ./cmd/hdserve
go build -o "$TMP/hdaudit" ./cmd/hdaudit

"$TMP/hdserve" -write-demo "$TMP/model.bin" -dim 256 -seed 42 >/dev/null

AUDIT_DIR="$TMP/audit"
# A 20ms stall at the score point makes the deadline shed below
# deterministic: a 1ms client budget always expires inside the stall.
"$TMP/hdserve" -model "$TMP/model.bin" -name audit-smoke -addr 127.0.0.1:0 \
    -log-format json -audit-dir "$AUDIT_DIR" -audit-fsync 100ms \
    -chaos-spec 'score:delay=20ms' \
    >"$TMP/stdout.log" 2>"$TMP/stderr.log" &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*"msg":"serving".*"addr":"\([^"]*\)".*/\1/p' "$TMP/stdout.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
        echo "audit-smoke: hdserve exited early" >&2
        cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
        exit 1
    }
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "audit-smoke: server never logged its address" >&2
    cat "$TMP/stdout.log" "$TMP/stderr.log" >&2
    exit 1
fi
if ! grep -q '"msg":"audit trail enabled"' "$TMP/stdout.log"; then
    echo "audit-smoke: no audit-enabled log line" >&2
    cat "$TMP/stdout.log" >&2
    exit 1
fi
echo "audit-smoke: serving on $ADDR, audit dir $AUDIT_DIR"

# Scored traffic, one request with explain-on-demand.
for i in 1 2 3 4 5; do
    curl -sSf -X POST "http://$ADDR/v1/score" \
        -H 'Content-Type: application/json' \
        -d '{"features":[2,120,70,25,100,30.5,0.4,40]}' >"$TMP/score_$i.json"
done
EXPLAIN=$(curl -sSf -X POST "http://$ADDR/v1/score?explain=3" \
    -H 'Content-Type: application/json' \
    -d '{"features":[2,120,70,25,100,30.5,0.4,40]}')
case "$EXPLAIN" in
*'"explain":['*'"feature"'*'"similarity"'*) echo "audit-smoke: explain-on-demand OK" ;;
*)
    echo "audit-smoke: ?explain=3 returned no contributions: $EXPLAIN" >&2
    exit 1
    ;;
esac

# A batch request: every record becomes its own audit event.
curl -sSf -X POST "http://$ADDR/v1/score/batch" \
    -H 'Content-Type: application/json' \
    -d '{"records":[[2,120,70,25,100,30.5,0.4,40],[1,90,60,20,80,25.0,0.2,30]]}' >/dev/null

# Feedback joins the trail through the request_id handle.
REQ_ID=$(sed -n 's/.*"request_id":"\([^"]*\)".*/\1/p' "$TMP/score_1.json")
curl -sSf -X POST "http://$ADDR/v1/feedback" \
    -H 'Content-Type: application/json' \
    -d "{\"request_id\":\"$REQ_ID\",\"label\":1}" >/dev/null

# Shed traffic: a 1ms client deadline cannot survive the 20ms score
# stall, so the request deterministically times out — and the shed
# must be audited too.
SHED_STATUS=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/score" \
    -H 'Content-Type: application/json' -H 'X-Request-Deadline-Ms: 1' \
    -d '{"features":[2,120,70,25,100,30.5,0.4,40]}')
if [ "$SHED_STATUS" != "504" ]; then
    echo "audit-smoke: deadline request answered $SHED_STATUS, want 504" >&2
    exit 1
fi

# The exposition carries the audit families with live values.
curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
for name in \
    hdfe_audit_events_total \
    hdfe_audit_dropped_total \
    hdfe_audit_rotations_total \
    hdfe_audit_chain_length \
    hdfe_audit_fsyncs_total \
    hdfe_audit_fsync_seconds_total; do
    if ! grep -q "^$name" "$TMP/metrics.txt"; then
        echo "audit-smoke: /metrics missing $name" >&2
        cat "$TMP/metrics.txt" >&2
        exit 1
    fi
done

# The async writer should land all 8 scored events quickly.
SCORED_OK=""
for _ in $(seq 1 100); do
    curl -sSf "http://$ADDR/metrics" >"$TMP/metrics.txt"
    if grep -q '^hdfe_audit_events_total{outcome="scored"} 8' "$TMP/metrics.txt"; then
        SCORED_OK=1
        break
    fi
    sleep 0.1
done
if [ -z "$SCORED_OK" ]; then
    echo "audit-smoke: hdfe_audit_events_total{outcome=\"scored\"} never reached 8" >&2
    grep '^hdfe_audit_' "$TMP/metrics.txt" >&2 || true
    exit 1
fi
echo "audit-smoke: audit metric families OK"

# /debug/audit reports the live chain state and the recent-events ring.
DEBUG=$(curl -sSf "http://$ADDR/debug/audit")
for field in '"enabled":true' '"chain_head"' '"recent"' '"score_bits"'; do
    case "$DEBUG" in
    *"$field"*) ;;
    *)
        echo "audit-smoke: /debug/audit missing $field: $DEBUG" >&2
        exit 1
        ;;
    esac
done
echo "audit-smoke: /debug/audit OK"

# Graceful shutdown seals the chain.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

# Offline verification: the hash chain must be unbroken, and the trail
# must replay bit-identically against the serving artifact.
"$TMP/hdaudit" verify -dir "$AUDIT_DIR" >"$TMP/verify.out"
cat "$TMP/verify.out"
grep -q 'audit chain OK' "$TMP/verify.out" || {
    echo "audit-smoke: hdaudit verify did not report OK" >&2
    exit 1
}
grep -q 'scored=8' "$TMP/verify.out" || {
    echo "audit-smoke: verify census missing scored=8" >&2
    exit 1
}
grep -q 'shed=1' "$TMP/verify.out" || {
    echo "audit-smoke: verify census missing shed=1" >&2
    exit 1
}
grep -q 'ok=1' "$TMP/verify.out" || {
    echo "audit-smoke: verify census missing the feedback event (ok=1)" >&2
    exit 1
}

"$TMP/hdaudit" replay -dir "$AUDIT_DIR" -model "$TMP/model.bin" >"$TMP/replay.out"
cat "$TMP/replay.out"
grep -q 'replayed 8 scored events' "$TMP/replay.out" || {
    echo "audit-smoke: replay did not cover all 8 scored events" >&2
    exit 1
}
grep -q 'matched 8, diverged 0' "$TMP/replay.out" || {
    echo "audit-smoke: replay diverged" >&2
    exit 1
}
echo "audit-smoke: verify + replay OK"

# Tamper detection: flip one byte in the newest segment and watch
# verification fail.
SEG=$(ls "$AUDIT_DIR"/audit-*.jsonl | head -n1)
dd if=/dev/zero of="$SEG" bs=1 count=1 seek=100 conv=notrunc 2>/dev/null
if "$TMP/hdaudit" verify -dir "$AUDIT_DIR" >"$TMP/tamper.out" 2>&1; then
    echo "audit-smoke: verify passed a tampered segment" >&2
    cat "$TMP/tamper.out" >&2
    exit 1
fi
echo "audit-smoke: tamper detection OK"
echo "audit-smoke: OK"
