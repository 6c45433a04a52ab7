package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Result is the report of one load run — the BENCH_http.json document. Like
// BENCH_core.json for library operations, the committed file is the
// machine-readable perf trajectory of the service layer; CI regenerates it
// under a fixed smoke scenario and fails on errors or leaked sessions.
type Result struct {
	// Scenario is the workload mix that ran.
	Scenario string `json:"scenario"`
	// Dataset is the explored dataset's registered name.
	Dataset string `json:"dataset"`
	// Rows is the row count of the served dataset (0 when unknown, e.g.
	// against a remote server).
	Rows int `json:"rows,omitempty"`
	// Sessions is the number of concurrent simulated analysts.
	Sessions int `json:"sessions"`
	// DurationSeconds is the measured wall time of the run.
	DurationSeconds float64 `json:"duration_seconds"`
	// LoadSeed is the resolved seed behind the run's load-side randomness
	// (scenario sampling, popularity, think times) — recorded even when it
	// was time-derived, so any run can be replayed bit-for-bit.
	LoadSeed int64 `json:"load_seed,omitempty"`
	// ThinkDist is the think-time distribution that shaped analyst pauses.
	ThinkDist string `json:"think_dist,omitempty"`
	// SchedLagP50Ms / SchedLagP99Ms are the scheduled-start vs actual-start
	// deltas of the closed-loop clients: how far each analyst ran behind its
	// own schedule. Closed-loop latency percentiles silently exclude this
	// backpressure (coordinated omission); surfacing it keeps the numbers
	// honestly labeled. The open-loop knee curve is the unbiased view.
	SchedLagP50Ms float64 `json:"sched_lag_p50_ms,omitempty"`
	SchedLagP99Ms float64 `json:"sched_lag_p99_ms,omitempty"`
	// SessionsCompleted counts full create→explore→delete lifecycles.
	SessionsCompleted int64 `json:"sessions_completed"`
	// TotalRequests and TotalErrors aggregate over every endpoint.
	TotalRequests int64 `json:"total_requests"`
	TotalErrors   int64 `json:"total_errors"`
	// RequestsPerSecond is the overall closed-loop throughput.
	RequestsPerSecond float64 `json:"requests_per_second"`
	// Targets lists the driven base URLs when the analysts were spread over
	// more than one server.
	Targets []string `json:"targets,omitempty"`
	// Nodes counts requests per serving node, from the X-Aware-Node response
	// header — the placement spread of a cluster run. Empty against a server
	// that doesn't identify itself.
	Nodes map[string]int64 `json:"nodes,omitempty"`
	// MultiNodeSessions counts completed sessions whose requests were served
	// by more than one node. Under a router with healthy consistent-hash
	// affinity this is zero; awareload's -check-affinity gate enforces it.
	MultiNodeSessions int64 `json:"multi_node_sessions,omitempty"`
	// Endpoints holds the per-endpoint latency distributions, keyed by the
	// server's route patterns and sorted by endpoint name.
	Endpoints []EndpointResult `json:"endpoints"`
	// ErrorSamples holds the first few error descriptions verbatim.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// ServerMetrics is the server's own GET /debug/metrics snapshot taken
	// right after the run, so client- and server-side numbers travel
	// together.
	ServerMetrics json.RawMessage `json:"server_metrics,omitempty"`
	// Observability records the mid-run and post-run scrapes of the server's
	// /metrics exposition and the /debug/trace ring — the numbers awareload's
	// -check-obs gate enforces.
	Observability *ObsReport `json:"observability,omitempty"`
}

// EndpointResult is one endpoint's latency distribution and throughput.
type EndpointResult struct {
	Endpoint          string  `json:"endpoint"`
	Requests          int64   `json:"requests"`
	Errors            int64   `json:"errors"`
	P50Ms             float64 `json:"p50_ms"`
	P95Ms             float64 `json:"p95_ms"`
	P99Ms             float64 `json:"p99_ms"`
	MeanMs            float64 `json:"mean_ms"`
	MaxMs             float64 `json:"max_ms"`
	RequestsPerSecond float64 `json:"rps"`
}

// WriteText renders the human-readable run summary: one line per endpoint,
// busiest first, then the totals.
func (r *Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s scenario: %d sessions, %.1fs ==\n", r.Scenario, r.Sessions, r.DurationSeconds); err != nil {
		return err
	}
	byTraffic := make([]EndpointResult, len(r.Endpoints))
	copy(byTraffic, r.Endpoints)
	sort.Slice(byTraffic, func(i, j int) bool { return byTraffic[i].Requests > byTraffic[j].Requests })
	for _, ep := range byTraffic {
		if _, err := fmt.Fprintf(w, "%-40s %7d req %4d err  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  max %8.2fms\n",
			ep.Endpoint, ep.Requests, ep.Errors, ep.P50Ms, ep.P95Ms, ep.P99Ms, ep.MaxMs); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "total: %d requests (%.1f req/s), %d errors, %d session lifecycles\n",
		r.TotalRequests, r.RequestsPerSecond, r.TotalErrors, r.SessionsCompleted); err != nil {
		return err
	}
	if len(r.Nodes) > 0 {
		names := make([]string, 0, len(r.Nodes))
		for n := range r.Nodes {
			names = append(names, n)
		}
		sort.Strings(names)
		if _, err := fmt.Fprintf(w, "nodes:"); err != nil {
			return err
		}
		for _, n := range names {
			if _, err := fmt.Fprintf(w, " %s=%d", n, r.Nodes[n]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " (sessions served by >1 node: %d)\n", r.MultiNodeSessions); err != nil {
			return err
		}
	}
	if r.SchedLagP99Ms > 0 || r.SchedLagP50Ms > 0 {
		if _, err := fmt.Fprintf(w, "closed-loop sched lag: p50 %.2fms  p99 %.2fms (coordinated-omission bias; see open-loop knee for unbiased latency)\n",
			r.SchedLagP50Ms, r.SchedLagP99Ms); err != nil {
			return err
		}
	}
	if o := r.Observability; o != nil {
		status := "ok"
		if err := o.Check(); err != nil {
			status = err.Error()
		}
		_, err := fmt.Fprintf(w, "observability: %d metric samples (%d mid-run), traces +%d this run (%d in ring, %d dropped) — %s\n",
			o.MetricsSamples, o.MidRunSamples, o.TraceCapturedDelta, o.TraceReturned, o.TraceDropped, status)
		return err
	}
	return nil
}

// Document is the committed BENCH_http.json layout: the closed-loop analyst
// report and the open-loop knee curve side by side. Either section may be
// absent — each awareload mode rewrites only its own section, so the two
// measurements can be refreshed independently.
type Document struct {
	ClosedLoop *Result         `json:"closed_loop,omitempty"`
	OpenLoop   *OpenLoopResult `json:"open_loop,omitempty"`
}

// LoadDocument reads a BENCH_http.json into the two-section layout. A
// missing file yields an empty document (first run). Decoding is strict, so a
// file in any other layout fails loudly instead of being silently rewritten.
func LoadDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Document{}, nil
	}
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc Document
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("loadgen: parsing %s: %w", path, err)
	}
	return &doc, nil
}
