#!/bin/sh
# coverage_gate.sh runs `go test -cover` across the module and fails if
# any package's statement coverage fell more than ALLOWED_DROP points
# below the committed baseline (scripts/coverage_baseline.txt). It is a
# regression gate, not a coverage target: the floor follows the baseline,
# so improving coverage raises the bar on the next baseline refresh while
# a one-off noisy run never blocks a PR over decimals.
#
#   sh scripts/coverage_gate.sh           # gate against the baseline
#   sh scripts/coverage_gate.sh -update   # rewrite the baseline from this run
#
# Every package that reports coverage must have a baseline line: one
# missing from the baseline (new code) fails the gate, so no package goes
# ungated. Baseline packages that disappeared (moved or deleted code)
# only print a notice. -update rewrites the baseline from this run.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"
BASELINE=scripts/coverage_baseline.txt
ALLOWED_DROP=2.0

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

go test -count=1 -cover ./... >"$TMP/out.txt" 2>&1 || {
    cat "$TMP/out.txt" >&2
    echo "coverage-gate: go test failed" >&2
    exit 1
}
cat "$TMP/out.txt"

# "ok <pkg> <time> coverage: <pct>% of statements" -> "<pkg> <pct>".
# Packages reporting "coverage: [no statements]" are skipped.
awk '$1 == "ok" {
    for (i = 1; i <= NF; i++)
        if ($i == "coverage:" && $(i + 1) ~ /%$/) {
            pct = $(i + 1)
            sub(/%/, "", pct)
            print $2, pct
        }
}' "$TMP/out.txt" | sort >"$TMP/current.txt"

if [ ! -s "$TMP/current.txt" ]; then
    echo "coverage-gate: no coverage lines parsed from go test output" >&2
    exit 1
fi

if [ "${1:-}" = "-update" ]; then
    cp "$TMP/current.txt" "$BASELINE"
    echo "coverage-gate: baseline rewritten ($(wc -l <"$BASELINE" | tr -d ' ') packages)"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo "coverage-gate: $BASELINE missing; generate it with: sh scripts/coverage_gate.sh -update" >&2
    exit 1
fi

FAIL=0
while read -r pkg base; do
    cur=$(awk -v p="$pkg" '$1 == p { print $2 }' "$TMP/current.txt")
    if [ -z "$cur" ]; then
        echo "coverage-gate: note: $pkg in baseline but not in this run (moved/deleted?)"
        continue
    fi
    if awk -v b="$base" -v c="$cur" -v d="$ALLOWED_DROP" 'BEGIN { exit !(b - c > d) }'; then
        echo "coverage-gate: FAIL $pkg dropped ${base}% -> ${cur}% (allowed drop ${ALLOWED_DROP}pt)" >&2
        FAIL=1
    fi
done <"$BASELINE"

while read -r pkg cur; do
    if ! awk -v p="$pkg" '$1 == p { found = 1 } END { exit !found }' "$BASELINE"; then
        echo "coverage-gate: FAIL $pkg at ${cur}% has no baseline line" >&2
        FAIL=1
    fi
done <"$TMP/current.txt"

if [ "$FAIL" -ne 0 ]; then
    echo "coverage-gate: coverage regressed or a package is ungated; if intentional, refresh with: sh scripts/coverage_gate.sh -update" >&2
    exit 1
fi
echo "coverage-gate: OK"
