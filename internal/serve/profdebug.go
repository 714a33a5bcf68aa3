package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hdfe/internal/obs/prof"
)

// maxPprofSeconds caps client-requested CPU capture windows so a typo'd
// ?seconds= cannot pin the profiler for hours.
const maxPprofSeconds = 120

// handleProfIndex serves the continuous-profiling state as JSON: the
// effective configuration, the capture ring (newest first, each entry
// downloadable at /debug/prof/{id} for `go tool pprof`), and the watchdog
// states.
func (s *Server) handleProfIndex(w http.ResponseWriter, r *http.Request) {
	intervalMs := s.profiler.Interval().Milliseconds()
	if s.profiler.Interval() < 0 {
		intervalMs = -1 // scheduled captures off
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"profiling": map[string]any{
			"interval_ms":     intervalMs,
			"cpu_duration_ms": s.profiler.CPUDuration().Milliseconds(),
			"captures": map[string]uint64{
				prof.KindCPU:       s.profiler.CapturesTotal(prof.KindCPU),
				prof.KindHeap:      s.profiler.CapturesTotal(prof.KindHeap),
				prof.KindGoroutine: s.profiler.CapturesTotal(prof.KindGoroutine),
				prof.KindMutex:     s.profiler.CapturesTotal(prof.KindMutex),
				prof.KindBlock:     s.profiler.CapturesTotal(prof.KindBlock),
			},
			"failures": s.profiler.Failures(),
		},
		"captures":  s.profiler.Ring().List(),
		"watchdogs": s.profiler.WatchdogStates(),
	})
}

// handleProfDownload serves one ring capture as the gzipped pprof blob
// runtime/pprof wrote — `go tool pprof` reads the download directly.
func (s *Server) handleProfDownload(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/prof/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad capture id: want /debug/prof/{id}"})
		return
	}
	c, ok := s.profiler.Ring().Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("capture %d not in ring (evicted or never taken)", id)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="%s-%d.pb.gz"`, c.Meta.Kind, c.Meta.ID))
	_, _ = w.Write(c.Blob)
}

// pprofSeconds parses the stdlib-compatible ?seconds= parameter of a CPU
// profile download (default 30, like net/http/pprof).
func pprofSeconds(r *http.Request) (time.Duration, error) {
	q := r.URL.Query().Get("seconds")
	sec := 30.0
	if q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("bad seconds parameter %q", q)
		}
		sec = v
	}
	if sec > maxPprofSeconds {
		sec = maxPprofSeconds
	}
	return time.Duration(sec * float64(time.Second)), nil
}

// handlePprofProfile replaces net/http/pprof.Profile: the capture runs
// through the continuous profiler, which serializes the process-wide CPU
// profile slot with its scheduled captures, and a successful download
// lands in the ring like any other capture. The request context bounds
// the capture, so a client that hangs up stops it.
func (s *Server) handlePprofProfile(w http.ResponseWriter, r *http.Request) {
	d, err := pprofSeconds(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	c, err := s.profiler.CaptureCPUBlob(r.Context(), d, prof.TriggerHTTP)
	if err != nil {
		// Cancelled client or a concurrent capture holding the slot.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "could not capture CPU profile: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="profile.pb.gz"`)
	_, _ = w.Write(c.Blob)
}
