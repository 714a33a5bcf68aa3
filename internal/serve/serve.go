// Package serve is the HTTP scoring service for a fitted hdfe deployment:
// the repo's first true serving layer, turning the zero-allocation
// Deployment.Score/ScoreBatch hot path into a network endpoint.
//
//   - POST /v1/score        scores one record; single requests are funnelled
//     through a microbatcher so concurrent traffic coalesces into
//     ScoreBatch calls instead of per-request encodes.
//   - POST /v1/score/batch  scores many records in one call.
//   - GET  /healthz         liveness + model identity.
//   - GET  /metrics         Prometheus text exposition: request and shed
//     counters, batch-size, latency and per-stage histograms.
//   - GET  /metrics.json    the counter snapshot as JSON.
//
// Requests are validated against the deployment's fitted codebook before
// they reach the encoders, with per-feature error messages; the NaN and
// clamping rules mirror the encode package's pinned contract (see
// Validator). Shutdown is graceful: the HTTP server drains in-flight
// handlers and the batcher scores every queued request before exiting, so
// accepted requests never lose their response.
package serve
