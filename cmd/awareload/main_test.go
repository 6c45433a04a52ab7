package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aware/internal/loadgen"
)

// TestRunInProcessSmoke is the CI smoke in miniature: a short mixed run
// against an in-process server on a small census must succeed, leave no
// sessions behind (checkLeaks on), pass the observability gate (checkObs on:
// parseable /metrics mid-run and after, non-zero trace captures), save the
// trace artifact, and write a parseable BENCH_http.json with latency
// percentiles per endpoint.
func TestRunInProcessSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_http.json")
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	err := run(options{
		scenario:   "mixed",
		sessions:   3,
		duration:   1200 * time.Millisecond,
		rows:       2000,
		seed:       1,
		dataset:    "census",
		minSupport: 60,
		benchOut:   out,
		traceOut:   traceOut,
		checkLeaks: true,
		checkObs:   true,
		workers:    2,
		logLevel:   "warn",
		logFormat:  "text",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc loadgen.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_http.json does not parse: %v", err)
	}
	if doc.ClosedLoop == nil {
		t.Fatal("BENCH_http.json has no closed_loop section")
	}
	res := doc.ClosedLoop
	if res.LoadSeed == 0 {
		t.Error("resolved load seed not recorded")
	}
	if res.Scenario != "mixed" || res.Sessions != 3 || res.Rows != 2000 {
		t.Errorf("unexpected run metadata: %+v", res)
	}
	if res.TotalRequests == 0 || res.TotalErrors != 0 {
		t.Errorf("requests=%d errors=%d, want traffic and zero errors", res.TotalRequests, res.TotalErrors)
	}
	found := false
	for _, ep := range res.Endpoints {
		if ep.Endpoint == "POST /v1/sessions" {
			found = true
			if ep.P50Ms <= 0 || ep.P95Ms < ep.P50Ms || ep.P99Ms < ep.P95Ms {
				t.Errorf("POST /v1/sessions percentiles not ordered: %+v", ep)
			}
		}
	}
	if !found {
		t.Error("POST /v1/sessions missing from BENCH_http.json")
	}

	// The observability section must carry the gate's inputs, and the trace
	// artifact must be a parseable /debug/trace document with span trees.
	if res.Observability == nil {
		t.Fatal("BENCH_http.json has no observability section")
	}
	if res.Observability.MetricsSamples == 0 || res.Observability.TraceCapturedDelta == 0 {
		t.Errorf("observability section empty: %+v", res.Observability)
	}
	traceData, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("trace artifact: %v", err)
	}
	var trace struct {
		Returned int               `json:"returned"`
		Traces   []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(traceData, &trace); err != nil {
		t.Fatalf("trace artifact does not parse: %v", err)
	}
	if trace.Returned == 0 || len(trace.Traces) != trace.Returned {
		t.Errorf("trace artifact has %d traces, returned=%d, want a non-empty consistent ring", len(trace.Traces), trace.Returned)
	}
}

// TestRunOpenLoopSmoke is the knee CI job in miniature: a two-point Poisson
// sweep against an in-process server must complete every point with zero
// errors and no leaked sessions, merge the knee curve into the open_loop
// section WITHOUT clobbering an existing closed-loop report, and survive its
// own structural validation.
func TestRunOpenLoopSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_http.json")
	// Pre-seed the document with a closed-loop report: the open-loop run must
	// preserve it.
	seed := []byte(`{"closed_loop": {"scenario":"mixed","dataset":"census","sessions":2,"duration_seconds":1,` +
		`"sessions_completed":4,"total_requests":40,"total_errors":0,"requests_per_second":40,"endpoints":[]}}`)
	if err := os.WriteFile(out, seed, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(options{
		scenario:   "mixed",
		sessions:   4,
		duration:   1500 * time.Millisecond,
		rows:       1500,
		seed:       1,
		loadSeed:   7,
		dataset:    "census",
		minSupport: 40,
		benchOut:   out,
		checkLeaks: true,
		workers:    2,
		logLevel:   "warn",
		logFormat:  "text",
		openLoop:   true,
		rpsSweep:   "30:60:2",
		arrival:    "poisson",
		burst:      32,
		inFlight:   64,

		opsPerSession: 8,
		zipf:          1.1,
	})
	if err != nil {
		t.Fatalf("open-loop run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc loadgen.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_http.json does not parse: %v", err)
	}
	if doc.ClosedLoop == nil || doc.ClosedLoop.Scenario != "mixed" {
		t.Error("open-loop run clobbered the existing closed-loop section")
	}
	ol := doc.OpenLoop
	if ol == nil {
		t.Fatal("BENCH_http.json has no open_loop section")
	}
	if err := ol.Validate(); err != nil {
		t.Errorf("knee curve fails validation: %v", err)
	}
	if len(ol.Points) != 2 || ol.LoadSeed != 7 || ol.Rows != 1500 {
		t.Errorf("unexpected sweep metadata: points=%d seed=%d rows=%d", len(ol.Points), ol.LoadSeed, ol.Rows)
	}
	for _, pt := range ol.Points {
		if pt.Errors != 0 {
			t.Errorf("knee point %.1f rps: %d errors", pt.TargetRPS, pt.Errors)
		}
	}
}

func TestSweepTargets(t *testing.T) {
	cases := []struct {
		sweep   string
		rps     float64
		want    []float64
		wantErr bool
	}{
		{sweep: "40:120:5", want: []float64{40, 60, 80, 100, 120}},
		{sweep: "50:50:1", want: []float64{50}},
		{sweep: "", rps: 75, want: []float64{75}},
		{sweep: "", rps: 0, wantErr: true},
		{sweep: "120:40:3", wantErr: true},
		{sweep: "0:10:2", wantErr: true},
		{sweep: "40:120:1", wantErr: true},
		{sweep: "garbage", wantErr: true},
	}
	for _, tc := range cases {
		got, err := sweepTargets(options{rpsSweep: tc.sweep, rps: tc.rps})
		if tc.wantErr {
			if err == nil {
				t.Errorf("sweepTargets(%q, %v): want error, got %v", tc.sweep, tc.rps, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("sweepTargets(%q, %v): %v", tc.sweep, tc.rps, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("sweepTargets(%q, %v) = %v, want %v", tc.sweep, tc.rps, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("sweepTargets(%q, %v) = %v, want %v", tc.sweep, tc.rps, got, tc.want)
				break
			}
		}
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	err := run(options{scenario: "bogus", sessions: 1, duration: time.Second, rows: 100,
		seed: 1, dataset: "census", minSupport: 10, logLevel: "warn", logFormat: "text"})
	if err == nil {
		t.Fatal("want error for unknown scenario")
	}
}
