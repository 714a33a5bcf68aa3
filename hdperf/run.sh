#!/usr/bin/env bash
# Builds hdserve and the hdperf load generator from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash hdperf/run.sh --workload pima-cohort --seed 1 --seconds 35 --trace 0
#
# Binaries, the Go build cache and each run's scratch files stay under
# .bench_build/ in the checkout. Build output goes to stderr, so the last
# line on stdout is always hdperf's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/hdserve" ./cmd/hdserve >&2
(cd "$root/hdperf" && go build -o "$out/bin/hdperf" .) >&2
exec "$out/bin/hdperf" -hdserve "$out/bin/hdserve" -workdir "$out" "$@"
