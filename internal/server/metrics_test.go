package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestDebugMetricsCounters drives a few requests through the API and checks
// that GET /debug/metrics reports them under the right route patterns, with
// error classes split out, in-flight back at zero, and the dataset's shared
// SelectionCache counters present.
func TestDebugMetricsCounters(t *testing.T) {
	_, ts := newTestServer(t)

	// Two routed successes on distinct endpoints.
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil), http.StatusOK)

	// A routed 4xx: unknown session.
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/999999", nil, nil), http.StatusNotFound)

	// Two unrouted requests: unknown path (404) and wrong method (405).
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/no/such/route", nil, nil), http.StatusNotFound)
	wantStatus(t, doJSON(t, http.MethodDelete, ts.URL+"/healthz", nil, nil), http.StatusMethodNotAllowed)

	// A request that exercises the filter cache, so hits+misses move.
	step := map[string]any{
		"op":     "add_visualization",
		"target": "gender",
		"predicate": map[string]any{
			"type": "equals", "column": "salary_over_50k", "value": "true",
		},
	}
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/1/steps", step, nil), http.StatusCreated)

	var snap MetricsSnapshot
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/debug/metrics", nil, &snap), http.StatusOK)

	if snap.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", snap.UptimeSeconds)
	}
	if snap.SessionsLive != 1 {
		t.Errorf("sessions_live = %d, want 1", snap.SessionsLive)
	}
	if snap.Datasets != 1 {
		t.Errorf("datasets = %d, want 1", snap.Datasets)
	}

	checks := []struct {
		pattern   string
		requests  int64
		errors4xx int64
	}{
		{"POST /v1/sessions", 1, 0},
		{"GET /healthz", 1, 0},
		{"GET /v1/sessions/{id}", 1, 1},
		{"POST /v1/sessions/{id}/steps", 1, 0},
	}
	for _, c := range checks {
		em, ok := snap.Endpoints[c.pattern]
		if !ok {
			t.Errorf("endpoint %q missing from snapshot", c.pattern)
			continue
		}
		if em.Requests != c.requests {
			t.Errorf("%s: requests = %d, want %d", c.pattern, em.Requests, c.requests)
		}
		if em.Errors4xx != c.errors4xx {
			t.Errorf("%s: errors_4xx = %d, want %d", c.pattern, em.Errors4xx, c.errors4xx)
		}
		if em.InFlight != 0 {
			t.Errorf("%s: in_flight = %d, want 0", c.pattern, em.InFlight)
		}
		if em.Requests > 0 && em.TotalMs < 0 {
			t.Errorf("%s: negative total_ms %v", c.pattern, em.TotalMs)
		}
	}

	// Every registered route must appear even with zero traffic, so dashboards
	// see the full endpoint list from the first scrape.
	if _, ok := snap.Endpoints["POST /v1/sessions/{id}/holdout/replay"]; !ok {
		t.Error("zero-traffic endpoint missing from snapshot")
	}

	if snap.Unrouted.NotFound != 1 {
		t.Errorf("unrouted.not_found = %d, want 1", snap.Unrouted.NotFound)
	}
	if snap.Unrouted.MethodNotAllowed != 1 {
		t.Errorf("unrouted.method_not_allowed = %d, want 1", snap.Unrouted.MethodNotAllowed)
	}

	cm, ok := snap.SelectionCaches["census"]
	if !ok {
		t.Fatalf("selection_caches missing census: %+v", snap.SelectionCaches)
	}
	if cm.Hits+cm.Misses == 0 {
		t.Errorf("selection cache saw no traffic after a filtered step: %+v", cm)
	}

	// The morsel-parallel pool's counters travel in the same snapshot. The
	// test census is small, so the filtered step must have taken at least one
	// sequential-cutoff path; workers reflect the server's pool size.
	if snap.Pool.Workers < 1 {
		t.Errorf("pool.workers = %d, want >= 1", snap.Pool.Workers)
	}
	if snap.Pool.SequentialCutoffHits == 0 {
		t.Errorf("pool counters saw no kernel traffic: %+v", snap.Pool)
	}
}

// TestDebugMetricsRecordsPanicsAs5xx checks that a panicking handler is still
// counted: the recovery middleware turns the panic into a 500 and the
// endpoint's counters must reflect it with in-flight back at zero.
func TestDebugMetricsRecordsPanicsAs5xx(t *testing.T) {
	s, ts := newTestServer(t)
	// Force a panic inside an instrumented handler by registering a dataset
	// with a nil table... not possible through the API, so panic via the
	// metrics instrumentation directly instead: wrap a panicking handler the
	// same way routes() does and serve it under the recovery middleware.
	h := withRecovery(s.log, s.instrument("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}

	snap := s.Metrics().snapshot(s.manager.now())
	em, ok := snap.Endpoints["GET /boom"]
	if !ok {
		t.Fatal("panicking endpoint not in snapshot")
	}
	if em.Requests != 1 || em.Errors5xx != 1 || em.InFlight != 0 {
		t.Errorf("got %+v, want requests=1 errors_5xx=1 in_flight=0", em)
	}
}
