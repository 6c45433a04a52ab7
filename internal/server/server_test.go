package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aware/internal/census"
	"aware/internal/core"
)

// newTestServer builds a server with a small census dataset registered under
// "census" and returns it behind an httptest listener.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(Config{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 2000, Seed: 7, SignalStrength: 1})
	if err != nil {
		t.Fatalf("generating census: %v", err)
	}
	if err := s.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON performs a request with a JSON body and decodes the JSON response
// into out (unless out is nil). It reports unexpected statuses with the
// response body for context.
func doJSON(t *testing.T, method, url string, body, out any) *http.Response {
	t.Helper()
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshaling request: %v", err)
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("got status %d, want %d (body: %s)", resp.StatusCode, want, body)
	}
}

// predicate JSON fragments used throughout the tests.
const (
	highEarners = `{"type": "equals", "column": "salary_over_50k", "value": "true"}`
	graduates   = `{"type": "in", "column": "education", "values": ["Master", "PhD"]}`
)

// TestInteractiveLoopConcurrentClients drives the paper's full interactive
// loop — create session, add visualizations, read the gauge, validate on a
// hold-out split, fetch the report — from many concurrent clients, each on
// its own session. Run with -race.
func TestInteractiveLoopConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t)

	const clients = 10
	ids := make([]int64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()

			// Create a session; odd clients pick a non-default policy.
			create := map[string]any{"dataset": "census"}
			if c%2 == 1 {
				create["policy"] = "gamma-fixed"
			}
			var info SessionInfo
			resp := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", create, &info)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("client %d: create session status %d", c, resp.StatusCode)
				return
			}
			ids[c] = info.ID
			base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

			// A filtered visualization: rule 2 auto-creates a hypothesis.
			var viz stepResponse
			resp = doJSON(t, http.MethodPost, base+"/steps", map[string]any{
				"op":        "add_visualization",
				"target":    "gender",
				"predicate": json.RawMessage(highEarners),
			}, &viz)
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("client %d: create viz status %d", c, resp.StatusCode)
				return
			}
			if viz.Hypothesis == nil {
				t.Errorf("client %d: filtered visualization created no hypothesis", c)
				return
			}

			// An unfiltered visualization: rule 1, descriptive, no hypothesis.
			var descriptive stepResponse
			doJSON(t, http.MethodPost, base+"/steps", map[string]any{"op": "add_visualization", "target": "age"}, &descriptive)
			if descriptive.Hypothesis != nil {
				t.Errorf("client %d: descriptive visualization created hypothesis %d", c, descriptive.Hypothesis.ID)
			}

			// The gauge reflects exactly this client's own session.
			var gauge gaugeResponse
			resp = doJSON(t, http.MethodGet, base+"/gauge", nil, &gauge)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: gauge status %d", c, resp.StatusCode)
				return
			}
			if gauge.Tests != 1 {
				t.Errorf("client %d: gauge reports %d tests, want 1", c, gauge.Tests)
			}
			// The test either spent wealth or earned the rejection payout;
			// either way the budget moved.
			if gauge.RemainingWealth == gauge.InitialWealth {
				t.Errorf("client %d: wealth untouched at %v despite a recorded test", c, gauge.RemainingWealth)
			}

			// Hold-out validation of a mean comparison, per-client split seed.
			var holdout holdoutResponse
			resp = doJSON(t, http.MethodPost, base+"/holdout/validate", map[string]any{
				"attribute": "hours_per_week",
				"predicate": json.RawMessage(highEarners),
				"seed":      c + 1,
			}, &holdout)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: holdout status %d", c, resp.StatusCode)
				return
			}
			if holdout.ExplorationRows+holdout.ValidationRows != 2000 {
				t.Errorf("client %d: holdout split covers %d+%d rows, want 2000",
					c, holdout.ExplorationRows, holdout.ValidationRows)
			}
			if holdout.Exploration.Method == "" || holdout.Validation.Method == "" {
				t.Errorf("client %d: holdout halves missing test results", c)
			}

			// The exported report matches the session's history.
			var report core.Report
			resp = doJSON(t, http.MethodGet, base+"/report", nil, &report)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: report status %d", c, resp.StatusCode)
				return
			}
			if len(report.Hypotheses) != 1 {
				t.Errorf("client %d: report lists %d hypotheses, want 1", c, len(report.Hypotheses))
			}
			if report.Rows != 2000 {
				t.Errorf("client %d: report rows %d, want 2000", c, report.Rows)
			}
		}(c)
	}
	wg.Wait()

	// Every client got a distinct session.
	seen := make(map[int64]bool)
	for c, id := range ids {
		if id == 0 {
			t.Fatalf("client %d never created a session", c)
		}
		if seen[id] {
			t.Errorf("session ID %d handed to two clients", id)
		}
		seen[id] = true
	}
	if got := s.Manager().Len(); got != clients {
		t.Errorf("manager tracks %d sessions, want %d", got, clients)
	}
}

func TestSessionLifecycleEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)

	var listing struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/v1/sessions", nil, &listing), http.StatusOK)
	if len(listing.Sessions) != 1 || listing.Sessions[0].ID != info.ID {
		t.Errorf("session listing = %+v, want the created session", listing.Sessions)
	}

	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)
	wantStatus(t, doJSON(t, http.MethodGet, base, nil, nil), http.StatusOK)
	wantStatus(t, doJSON(t, http.MethodDelete, base, nil, nil), http.StatusNoContent)
	wantStatus(t, doJSON(t, http.MethodGet, base, nil, nil), http.StatusNotFound)
	wantStatus(t, doJSON(t, http.MethodDelete, base, nil, nil), http.StatusNotFound)
}

func TestCompareAndStarEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	// Two complementary visualizations of the same target.
	var a, b stepResponse
	doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "add_visualization", "target": "gender", "predicate": json.RawMessage(highEarners),
	}, &a)
	doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "add_visualization", "target": "gender", "predicate": json.RawMessage(`{"type": "not", "term": ` + highEarners + `}`),
	}, &b)

	// Rule 3: comparing them supersedes the two rule-2 hypotheses.
	var cmp stepResponse
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "compare_visualizations", "a": a.Visualization.ID, "b": b.Visualization.ID,
	}, &cmp), http.StatusCreated)

	var gauge gaugeResponse
	doJSON(t, http.MethodGet, base+"/gauge", nil, &gauge)
	if gauge.Tests != 1 {
		t.Errorf("after rule 3, gauge reports %d active tests, want 1 (rule-2 pair superseded)", gauge.Tests)
	}
	superseded := 0
	for _, h := range gauge.Hypotheses {
		if h.Status == core.StatusSuperseded.String() {
			superseded++
		}
	}
	if superseded != 2 {
		t.Errorf("gauge shows %d superseded hypotheses, want 2", superseded)
	}

	// Explicit t-test on means (the Figure 1 F interaction).
	var means stepResponse
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "compare_means", "a": a.Visualization.ID, "b": b.Visualization.ID, "attribute": "age",
	}, &means), http.StatusCreated)
	if !strings.Contains(means.Hypothesis.Method, "t-test") {
		t.Errorf("means_of comparison used %q, want a t-test", means.Hypothesis.Method)
	}

	// Star the mean hypothesis if it was rejected; either way the step must
	// round-trip.
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "star", "hypothesis": means.Hypothesis.ID, "starred": true,
	}, nil), http.StatusCreated)
	doJSON(t, http.MethodGet, base+"/gauge", nil, &gauge)
	for _, h := range gauge.Hypotheses {
		if h.ID == means.Hypothesis.ID && !h.Starred {
			t.Errorf("hypothesis %d not starred after star step", h.ID)
		}
	}

	// Starring an unknown hypothesis is a 404.
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "star", "hypothesis": 999, "starred": true,
	}, nil), http.StatusNotFound)
}

func TestDatasetUploadAndSession(t *testing.T) {
	_, ts := newTestServer(t)

	csv := "city,temp\nBoston,8\nBoston,9\nPhoenix,31\nPhoenix,29\nPhoenix,33\nBoston,7\n"
	url := ts.URL + "/v1/datasets?name=weather&float=temp"
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusCreated)
	var created DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Re-registering the same name conflicts.
	resp, err = http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()

	// Typing one column under two overrides is rejected.
	resp, err = http.Post(ts.URL+"/v1/datasets?name=w2&float=temp&int=temp", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	var listing struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &listing)
	if len(listing.Datasets) != 2 {
		t.Fatalf("dataset listing has %d entries, want 2 (census + weather)", len(listing.Datasets))
	}
	// The upload answers with the same description the listing gives.
	var listed *DatasetInfo
	for i := range listing.Datasets {
		if listing.Datasets[i].Name == "weather" {
			listed = &listing.Datasets[i]
		}
	}
	if listed == nil {
		t.Fatal("dataset listing has no weather entry")
	}
	if !reflect.DeepEqual(created, *listed) {
		t.Errorf("upload answered %+v, listing has %+v", created, *listed)
	}

	// Explore the uploaded dataset.
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "weather"}, &info), http.StatusCreated)
	var viz stepResponse
	wantStatus(t, doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%d/steps", ts.URL, info.ID), map[string]any{
		"op":        "add_visualization",
		"target":    "temp",
		"predicate": json.RawMessage(`{"type": "equals", "column": "city", "value": "Phoenix"}`),
	}, &viz), http.StatusCreated)
	if viz.Hypothesis == nil {
		t.Fatal("filtered visualization over uploaded dataset created no hypothesis")
	}
}

// TestRunFailsFastOnBindError occupies a port and checks Run reports the
// bind failure instead of hanging on its sweeper goroutine.
func TestRunFailsFastOnBindError(t *testing.T) {
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	s, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, listener.Addr().String()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run on an occupied port returned nil, want bind error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a bind failure")
	}
}

// TestRunGracefulShutdown serves one request, cancels the context and checks
// Run returns cleanly.
func TestRunGracefulShutdown(t *testing.T) {
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := listener.Addr().String()
	listener.Close() // free the port for Run

	s, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, addr) }()

	// Wait for the listener to come up, then shut down.
	var up bool
	for i := 0; i < 100 && !up; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !up {
		t.Fatal("server never came up")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run returned %v on graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	cases := []struct {
		name   string
		method string
		url    string
		body   any
		want   int
	}{
		{"unknown dataset", http.MethodPost, ts.URL + "/v1/sessions", map[string]any{"dataset": "nope"}, http.StatusNotFound},
		{"missing dataset", http.MethodPost, ts.URL + "/v1/sessions", map[string]any{}, http.StatusBadRequest},
		{"unknown policy", http.MethodPost, ts.URL + "/v1/sessions", map[string]any{"dataset": "census", "policy": "yolo"}, http.StatusBadRequest},
		{"unknown session gauge", http.MethodGet, ts.URL + "/v1/sessions/99999/gauge", nil, http.StatusNotFound},
		{"non-numeric session id", http.MethodGet, ts.URL + "/v1/sessions/abc/gauge", nil, http.StatusBadRequest},
		{"unknown viz target", http.MethodPost, base + "/steps", map[string]any{"op": "add_visualization", "target": "shoe_size"}, http.StatusBadRequest},
		{"bad predicate", http.MethodPost, base + "/steps",
			map[string]any{"op": "add_visualization", "target": "gender", "predicate": json.RawMessage(`{"type": "xor"}`)}, http.StatusBadRequest},
		{"unknown fields rejected", http.MethodPost, base + "/steps",
			map[string]any{"op": "add_visualization", "target": "gender", "predicte": json.RawMessage(highEarners)}, http.StatusBadRequest},
		{"compare unknown viz", http.MethodPost, base + "/steps", map[string]any{"op": "compare_visualizations", "a": 90, "b": 91}, http.StatusNotFound},
		{"holdout without predicate", http.MethodPost, base + "/holdout/validate",
			map[string]any{"attribute": "age"}, http.StatusBadRequest},
		{"holdout bad alternative", http.MethodPost, base + "/holdout/validate",
			map[string]any{"attribute": "age", "predicate": json.RawMessage(graduates), "alternative": "sideways"}, http.StatusBadRequest},
		{"holdout categorical attribute", http.MethodPost, base + "/holdout/validate",
			map[string]any{"attribute": "gender", "predicate": json.RawMessage(graduates)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus(t, doJSON(t, tc.method, tc.url, tc.body, nil), tc.want)
		})
	}
}

// TestWealthExhaustionConflict drains a gamma-fixed session and checks the
// API reports exhaustion as 409 instead of 500.
func TestWealthExhaustionConflict(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census", "policy": "gamma-fixed"}, &info)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	// gamma-fixed funds a bounded number of tests; ask for more than it can
	// pay for. The shuffled-education predicate family keeps each test cheap.
	sawConflict := false
	for i := 0; i < 64 && !sawConflict; i++ {
		body := map[string]any{
			"op":     "add_visualization",
			"target": "gender",
			"predicate": json.RawMessage(fmt.Sprintf(
				`{"type": "range", "column": "age", "low": %d, "high": %d}`, 18+i, 23+i)),
		}
		resp := doJSON(t, http.MethodPost, base+"/steps", body, nil)
		switch resp.StatusCode {
		case http.StatusCreated:
		case http.StatusConflict:
			sawConflict = true
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if !sawConflict {
		t.Fatal("never saw 409 despite draining a gamma-fixed budget")
	}

	// The session survives exhaustion: the gauge still renders and flags it.
	var gauge gaugeResponse
	wantStatus(t, doJSON(t, http.MethodGet, base+"/gauge", nil, &gauge), http.StatusOK)
	if !gauge.Exhausted {
		t.Error("gauge does not report exhaustion")
	}
}

func TestHealthEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var health struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health), http.StatusOK)
	if health.Status != "ok" || health.Datasets != 1 {
		t.Errorf("health = %+v, want ok with 1 dataset", health)
	}
}
