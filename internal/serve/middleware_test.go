package serve

import (
	"net/http"
	"testing"
)

// readOnlyRoutes is every route mounted behind the readOnly middleware.
// Adding a read-only endpoint without listing it here fails the test
// below via the catch-all GET sweep in TestReadOnlyMiddleware.
var readOnlyRoutes = []string{
	"/healthz",
	"/metrics",
	"/debug/traces",
	"/debug/slo",
	"/debug/drift",
	"/debug/audit",
	"/debug/prof",
	"/v1/models",
}

// TestReadOnlyMiddleware is the table-driven guard test for the shared
// readOnly middleware: every read-only endpoint answers GET with
// no-store caching and refuses every other method with 405 + Allow.
func TestReadOnlyMiddleware(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	for _, path := range readOnlyRoutes {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s: Cache-Control %q, want no-store", path, cc)
		}
		for _, method := range []string{http.MethodPost, http.MethodDelete, http.MethodPut, http.MethodPatch, http.MethodHead} {
			req, err := http.NewRequest(method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
				t.Errorf("%s %s: Allow %q, want GET", method, path, allow)
			}
		}
	}
}

// TestDebugJSONHeaders pins the response-header contract of every JSON
// read-only endpoint: Content-Type: application/json (all go through
// writeJSON) and Cache-Control: no-store (debug and metric state must
// never be served from a cache). /metrics is the deliberate exception —
// Prometheus text format — and /debug/prof/{id} streams a gzipped
// profile; both are excluded here and pinned by their own tests.
func TestDebugJSONHeaders(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	for _, path := range []string{
		"/healthz",
		"/debug/traces",
		"/debug/slo",
		"/debug/drift",
		"/debug/audit",
		"/debug/prof",
		"/v1/models",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q, want application/json", path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s: Cache-Control %q, want no-store", path, cc)
		}
	}
}

// TestWriteOnlyEndpointMethods pins the inverse contract: the mutating
// endpoints refuse GET with 405 + Allow: POST.
func TestWriteOnlyEndpointMethods(t *testing.T) {
	_, ts, _ := driftServer(t, Config{})
	for _, path := range []string{"/v1/score", "/v1/score/batch", "/v1/feedback", "/admin/models/load"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
			t.Errorf("GET %s: status %d Allow %q, want 405 + POST", path, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
}
