// Serverclient demonstrates awared's multi-session HTTP service layer and the
// typed Go client that fronts it: the example starts the server in-process on
// a loopback port, then lets several scripted analysts explore the synthetic
// census concurrently, each in their own FDR-controlled session. Every analyst
// follows the paper's interactive loop — filtered visualizations become
// auto-tracked hypotheses, the risk gauge reports the shrinking α-wealth, a
// promising finding is re-validated on a hold-out split, and the session ends
// with an exportable report.
//
// Run with:
//
//	go run ./examples/serverclient
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/core"
	"aware/internal/server"
)

// analyst scripts one user's exploration: a filter chain to drill into and a
// numeric attribute to validate on the hold-out split.
type analyst struct {
	name      string
	target    string
	predicate string
	holdout   string
}

var analysts = []analyst{
	{"amber", "gender", `{"type": "equals", "column": "salary_over_50k", "value": "true"}`, "age"},
	{"bruno", "education", `{"type": "gt", "column": "hours_per_week", "threshold": 45}`, "age"},
	{"carol", "marital_status", `{"type": "range", "column": "age", "low": 25, "high": 35}`, "hours_per_week"},
	{"dilip", "salary_over_50k", `{"type": "in", "column": "education", "values": ["Master", "PhD"]}`, "hours_per_week"},
	{"erika", "occupation", `{"type": "not", "term": {"type": "equals", "column": "gender", "value": "Male"}}`, "age"},
	{"fabio", "gender", `{"type": "and", "terms": [
		{"type": "equals", "column": "education", "value": "PhD"},
		{"type": "gt", "column": "hours_per_week", "threshold": 40}]}`, "hours_per_week"},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "serverclient: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// Start awared's service layer in-process on a random loopback port.
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return err
	}
	table, err := census.Generate(census.Config{Rows: 10000, Seed: 1, SignalStrength: 1})
	if err != nil {
		return err
	}
	if err := srv.Registry().Register("census", table); err != nil {
		return err
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: srv.Handler()}
	go httpServer.Serve(listener)
	defer httpServer.Close()
	base := "http://" + listener.Addr().String()
	fmt.Printf("awared serving the census (%d rows) at %s\n\n", table.NumRows(), base)

	// Each analyst explores concurrently in a private session, through their
	// own typed client.
	ctx := context.Background()
	results := make([]string, len(analysts))
	var wg sync.WaitGroup
	for i, a := range analysts {
		wg.Add(1)
		go func(i int, a analyst) {
			defer wg.Done()
			summary, err := explore(ctx, client.New(base), a)
			if err != nil {
				summary = fmt.Sprintf("%-6s FAILED: %v", a.name, err)
			}
			results[i] = summary
		}(i, a)
	}
	wg.Wait()

	for _, line := range results {
		fmt.Println(line)
	}

	// The service tracked every session independently.
	health, err := client.New(base).Health(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nserver health: %d live sessions, one risk gauge each — no\n", health.Sessions)
	fmt.Println("analyst's discoveries inflate any other's false discovery rate.")
	return nil
}

// explore drives one analyst through the full interactive loop and returns a
// one-line summary.
func explore(ctx context.Context, c *client.Client, a analyst) (string, error) {
	// 1. Open a session.
	session, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
	if err != nil {
		return "", fmt.Errorf("creating session: %w", err)
	}

	// 2. A filtered visualization, sent as a serializable step command: rule 2
	// turns it into a tracked hypothesis and the step lands in the session's
	// replayable journal.
	step, err := json.Marshal(map[string]any{
		"op":        "add_visualization",
		"target":    a.target,
		"predicate": json.RawMessage(a.predicate),
	})
	if err != nil {
		return "", err
	}
	viz, err := c.ApplyRawStep(ctx, session.ID, step)
	if err != nil {
		return "", fmt.Errorf("applying add_visualization step: %w", err)
	}

	// 3. Star the discovery, if there was one: a typed step on the same
	// endpoint.
	if viz.Hypothesis != nil && viz.Hypothesis.Rejected {
		if _, err := c.ApplyStep(ctx, session.ID, core.Star{Hypothesis: viz.Hypothesis.ID, Starred: true}); err != nil {
			return "", fmt.Errorf("starring: %w", err)
		}
	}

	// 4. Check the risk gauge.
	gauge, err := c.Gauge(ctx, session.ID)
	if err != nil {
		return "", fmt.Errorf("reading gauge: %w", err)
	}

	// 5. Re-validate the subgroup's mean on a hold-out split.
	holdout, err := c.HoldoutValidate(ctx, session.ID, api.HoldoutValidateRequest{
		Attribute: a.holdout,
		Predicate: json.RawMessage(a.predicate),
	})
	if err != nil {
		return "", fmt.Errorf("holdout validation: %w", err)
	}

	// 6. Re-validate the whole recorded exploration on a hold-out split: the
	// step log replays independently on both halves (Section 4.1 generalized).
	replay, err := c.HoldoutReplay(ctx, session.ID, api.HoldoutReplayRequest{})
	if err != nil {
		return "", fmt.Errorf("holdout replay: %w", err)
	}

	// 7. Export the report.
	if _, err := c.Report(ctx, session.ID); err != nil {
		return "", fmt.Errorf("fetching report: %w", err)
	}

	confirmed := "not confirmed"
	if holdout.Confirmed {
		confirmed = "CONFIRMED"
	}
	return fmt.Sprintf("%-6s session %d: %d test(s), %d discovery(ies), wealth %.4f; holdout mean %s on %s: %s; log replay: %d/%d confirmed",
		a.name, session.ID, gauge.Tests, gauge.Discoveries, gauge.RemainingWealth, a.holdout, describeShort(a.predicate), confirmed, replay.Confirmed, replay.ActiveTotal), nil
}

// describeShort renders the predicate JSON compactly for the summary line.
func describeShort(predicate string) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(predicate)); err != nil {
		return predicate
	}
	s := buf.String()
	if len(s) > 48 {
		s = s[:45] + "..."
	}
	return s
}
