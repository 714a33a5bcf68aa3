// Package serve is the HTTP scoring service for a fitted hdfe deployment:
// the repo's first true serving layer, turning the zero-allocation
// Deployment.Score/ScoreBatch hot path into a network endpoint.
//
//   - POST /v1/score        scores one record on the handler goroutine.
//   - POST /v1/score/batch  scores many records in one call.
//   - GET  /healthz         liveness + model identity.
//   - GET  /metrics         Prometheus text exposition: request and shed
//     counters, latency and per-stage histograms.
//
// The server owns its models. Each adopted deployment becomes one model
// — identity, validator and drift state, all built before it is
// published — stored in an atomic pointer, active or shadow. A request
// loads the active model once and uses it throughout, so a hot swap
// (POST /admin/models/load, SIGHUP in cmd/hdserve) never splits a
// request across versions. GET /v1/models lists them.
//
// Requests are validated against the deployment's fitted codebook before
// they reach the encoders, with per-feature error messages; the NaN and
// clamping rules mirror the encode package's pinned contract (see
// Validator). Shutdown is graceful: Serve closes the listener, so new
// connections are refused, and waits for in-flight handlers to finish, so
// accepted requests never lose their response. After Close, both scoring
// routes answer 503.
package serve
