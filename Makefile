# Tier-1 entry points for hdfe. `make test` is the gate every change must
# pass; `make test-race` runs the whole module (serving suite included)
# under the race detector; `make fuzz-smoke` gives each fuzz target a short
# budget, including the scoring-body parser checked against encoding/json;
# `make bench` tracks the zero-allocation encode/score path, the
# carry-save bundling of 8 and 16 codewords (the two closed-form
# majority thresholds; AVX2 block kernels with a Go tail on amd64) and
# the Hamming and one-pass prototype distances (512-bit VPOPCNTQ block
# kernels on CPUs with AVX512_VPOPCNTDQ, AVX2 ones on other amd64 CPUs,
# each with a Go tail; the Go loop alone elsewhere), the checkpointed
# level codeword, the fit's tiled leave-one-out over Pima M and Sylhet,
# the parse of a 64-record batch body, concurrent single-record
# /v1/score throughput, and closed-loop 64-record /v1/score/batch
# throughput and latency with 1 and 2 clients, each batch scored on its
# handler goroutine;
# `make obs-smoke` boots
# hdserve and asserts the /metrics surface; `make trace-smoke` adds a
# mock OTLP collector and asserts the W3C traceparent round trip, span
# export, exemplars, and /debug/slo; `make prof-smoke` drives batch load
# against a fast profiling cadence and asserts the capture ring, pprof
# downloads, and runtime families;
# `make audit-smoke` serves with the decision audit trail on, then
# verifies and replays the hash chain offline with hdaudit.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all fmt vet test test-race fuzz-smoke bench obs-smoke trace-smoke prof-smoke audit-smoke cover cover-baseline

all: fmt vet test

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

test:
	$(GO) build ./... && $(GO) test ./...

# Every package, so new packages (internal/serve, cmd/*) are covered
# automatically instead of a hand-maintained list going stale.
test-race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test ./internal/encode -run '^$$' -fuzz '^FuzzEncodeRecordInto$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encode -run '^$$' -fuzz '^FuzzLevelEncoderFlips$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hv -run '^$$' -fuzz '^FuzzMajorityInto$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzCSVParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/drift -run '^$$' -fuzz '^FuzzFeedbackJoin$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzHistogramSlot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzScoringBody$$' -fuzztime $(FUZZTIME)

bench:
	$(GO) test ./internal/core -run '^$$' -bench 'TransformRecord|ScoreBatch' -benchmem
	$(GO) test ./internal/hv -run '^$$' -bench 'Bundle8Features|Bundle16Features|HammingD10k|HammingPairD10k' -benchmem
	$(GO) test ./internal/encode -run '^$$' -bench 'LevelEncodeInto' -benchmem
	$(GO) test ./internal/ml/hamming -run '^$$' -bench 'LeaveOneOut' -benchmem
	$(GO) test ./internal/serve -run '^$$' -bench 'ParseScoringBody64' -benchmem
	$(GO) test ./internal/serve -run '^$$' -bench 'ScoreConcurrent' -benchtime 20000x -benchmem
	$(GO) test ./internal/serve -run '^$$' -bench 'ScoreBatchRoute' -benchtime 4000x -benchmem

obs-smoke:
	sh scripts/obs_smoke.sh

trace-smoke:
	sh scripts/trace_smoke.sh

prof-smoke:
	sh scripts/prof_smoke.sh

audit-smoke:
	sh scripts/audit_smoke.sh

# Per-package coverage gate: fails only when a package drops more than
# 2 points below scripts/coverage_baseline.txt. Refresh the baseline
# with `make cover-baseline` when a drop (or a rise) is intentional.
cover:
	sh scripts/coverage_gate.sh

cover-baseline:
	sh scripts/coverage_gate.sh -update
