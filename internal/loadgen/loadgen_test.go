package loadgen_test

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aware/internal/census"
	"aware/internal/dataset"
	"aware/internal/loadgen"
	"aware/internal/server"
)

// startServer boots an in-process awared with a small census and returns the
// base URL, the server (for the leak assertion) and the table (for scenario
// sourcing).
func startServer(t *testing.T) (string, *server.Server, *dataset.Table) {
	t.Helper()
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 2000, Seed: 5, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, srv, table
}

// TestRunMixedScenarioCleanly is the package's own smoke: a short mixed run
// against an in-process server must finish with zero errors, traffic on the
// core endpoints, sane latency statistics, and no leaked sessions.
func TestRunMixedScenarioCleanly(t *testing.T) {
	base, srv, table := startServer(t)
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    base,
		Table:      table,
		Scenario:   loadgen.ScenarioMixed,
		Sessions:   4,
		Duration:   1500 * time.Millisecond,
		Seed:       1,
		MinSupport: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalErrors != 0 {
		t.Fatalf("run produced %d errors: %v", res.TotalErrors, res.ErrorSamples)
	}
	if res.TotalRequests == 0 || res.SessionsCompleted == 0 {
		t.Fatalf("run produced no traffic: %+v", res)
	}
	for _, endpoint := range []string{"POST /v1/sessions", "DELETE /v1/sessions/{id}", "POST /v1/sessions/{id}/steps"} {
		found := false
		for _, ep := range res.Endpoints {
			if ep.Endpoint == endpoint {
				found = true
				if ep.Requests == 0 {
					t.Errorf("%s: zero requests", endpoint)
				}
				if ep.P50Ms <= 0 || ep.P99Ms < ep.P50Ms || ep.MaxMs < ep.P99Ms {
					t.Errorf("%s: implausible latency stats %+v", endpoint, ep)
				}
			}
		}
		if !found {
			t.Errorf("endpoint %s missing from result", endpoint)
		}
	}
	if res.ServerMetrics == nil {
		t.Error("result is missing the server metrics snapshot")
	}
	// Closed loop cleaned up after itself: every created session was deleted.
	if n := srv.Manager().Len(); n != 0 {
		t.Errorf("server still has %d live sessions after the run", n)
	}
	if n, err := loadgen.SessionCount(base, nil); err != nil || n != 0 {
		t.Errorf("SessionCount = %d, %v; want 0, nil", n, err)
	}

	var text strings.Builder
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "POST /v1/sessions") {
		t.Errorf("text report missing endpoints:\n%s", text.String())
	}
}

// TestRunEveryScenario exercises each named scenario briefly: the scripts
// must run without errors against a live server.
func TestRunEveryScenario(t *testing.T) {
	base, srv, table := startServer(t)
	for _, sc := range []loadgen.Scenario{
		loadgen.ScenarioFilter, loadgen.ScenarioViz, loadgen.ScenarioSteps, loadgen.ScenarioHoldout,
	} {
		t.Run(string(sc), func(t *testing.T) {
			res, err := loadgen.Run(context.Background(), loadgen.Config{
				BaseURL:    base,
				Table:      table,
				Scenario:   sc,
				Sessions:   2,
				Duration:   400 * time.Millisecond,
				Seed:       int64(len(sc)),
				MinSupport: 60,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalErrors != 0 {
				t.Fatalf("scenario %s produced %d errors: %v", sc, res.TotalErrors, res.ErrorSamples)
			}
			if res.TotalRequests == 0 {
				t.Fatalf("scenario %s produced no traffic", sc)
			}
			if n := srv.Manager().Len(); n != 0 {
				t.Errorf("scenario %s leaked %d sessions", sc, n)
			}
		})
	}
}

func TestRunConfigValidation(t *testing.T) {
	_, _, table := startServer(t)
	cases := []struct {
		name string
		cfg  loadgen.Config
	}{
		{"missing base url", loadgen.Config{Table: table, Sessions: 1, Duration: time.Second}},
		{"missing table", loadgen.Config{BaseURL: "http://x", Sessions: 1, Duration: time.Second}},
		{"zero sessions", loadgen.Config{BaseURL: "http://x", Table: table, Duration: time.Second}},
		{"zero duration", loadgen.Config{BaseURL: "http://x", Table: table, Sessions: 1}},
		{"bad scenario", loadgen.Config{BaseURL: "http://x", Table: table, Sessions: 1, Duration: time.Second, Scenario: "nope"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := loadgen.Run(context.Background(), tc.cfg); err == nil {
				t.Fatal("want config error")
			}
		})
	}
}

func TestParseScenario(t *testing.T) {
	for _, sc := range loadgen.Scenarios() {
		got, err := loadgen.ParseScenario(string(sc))
		if err != nil || got != sc {
			t.Errorf("ParseScenario(%q) = %v, %v", sc, got, err)
		}
	}
	if _, err := loadgen.ParseScenario("bogus"); err == nil {
		t.Error("want error for unknown scenario")
	}
}

// TestLoadDocumentIsStrict checks LoadDocument reads the two-section layout,
// treats a missing file as empty, and rejects any other layout (a flat
// closed-loop report included) instead of silently dropping its content.
func TestLoadDocumentIsStrict(t *testing.T) {
	dir := t.TempDir()
	doc, err := loadgen.LoadDocument(filepath.Join(dir, "missing.json"))
	if err != nil || doc.ClosedLoop != nil || doc.OpenLoop != nil {
		t.Fatalf("missing file = %+v, %v; want an empty document", doc, err)
	}
	for name, body := range map[string]string{
		"sections.json": `{"closed_loop": {"scenario": "mixed", "total_requests": 40}}`,
		"flat.json":     `{"scenario": "mixed", "total_requests": 40}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	doc, err = loadgen.LoadDocument(filepath.Join(dir, "sections.json"))
	if err != nil || doc.ClosedLoop == nil || doc.ClosedLoop.TotalRequests != 40 {
		t.Fatalf("two-section document = %+v, %v", doc, err)
	}
	if _, err := loadgen.LoadDocument(filepath.Join(dir, "flat.json")); err == nil {
		t.Error("a flat report loaded without error; want a strict-decoding failure")
	}
}
