// Command awareload runs closed-loop load scenarios against awared and writes
// the per-endpoint latency report to BENCH_http.json — the service-layer
// counterpart of awarebench's BENCH_core.json. Scenarios simulate concurrent
// analysts running the paper's interactive-exploration loop (filter-heavy,
// visualization-heavy, steps/replay-heavy and holdout-validation mixes),
// sourced from the census user-study workflow generator.
//
// Usage:
//
//	awareload -scenario mixed -sessions 8 -duration 10s     # in-process server
//	awareload -scenario steps -rows 100000 -sessions 32     # heavier, bigger census
//	awareload -addr http://localhost:8080 -scenario filter  # against a running awared
//	awareload -check-leaks                                  # CI mode: fail on any
//	                                                        # non-2xx or leaked session
//
// Without -addr, awareload boots awared in-process on a loopback port with a
// synthetic census of -rows rows, so one command measures the full HTTP stack
// with no setup. With -addr, the target must serve a census-schema dataset
// under the -dataset name, and -rows/-seed must match the served table for
// scenario pre-validation (the default awared flags already do).
//
// awareload exits non-zero if any request failed (non-2xx or transport
// error), with -check-leaks also if the server's live-session count did not
// return to its pre-run value, and with -check-obs also if the server's
// /metrics exposition was malformed at either scrape or the run captured zero
// request traces. -trace-out saves the post-run /debug/trace document as a CI
// artifact. Status lines are structured slog (JSON by default); the run
// report stays plain text on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aware/internal/benchio"
	"aware/internal/census"
	"aware/internal/dataset"
	"aware/internal/loadgen"
	"aware/internal/server"
)

// options is awareload's resolved command line.
type options struct {
	scenario      string
	sessions      int
	duration      time.Duration
	rows          int
	seed          int64
	addrs         []string
	dataset       string
	dataDir       string
	think         time.Duration
	thinkDist     string
	loadSeed      int64
	minSupport    int
	benchOut      string
	traceOut      string
	checkLeaks    bool
	checkObs      bool
	checkAffinity bool
	workers       int
	logLevel      string
	logFormat     string

	clusterSizes      string
	awaredBin         string
	clusterOut        string
	minClusterSpeedup float64

	openLoop      bool
	rps           float64
	rpsSweep      string
	arrival       string
	burst         int
	inFlight      int
	opsPerSession int
	zipf          float64
}

func main() {
	var o options
	flag.StringVar(&o.scenario, "scenario", "mixed", "workload mix: filter, viz, steps, holdout, mixed")
	flag.IntVar(&o.sessions, "sessions", 8, "concurrent simulated analysts")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "how long to issue load")
	flag.IntVar(&o.rows, "rows", 30000, "rows of the synthetic census (served in-process, and used for scenario pre-validation)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the census and the analysts' choices")
	flag.Func("addr", "base URL of a running awared or awarerouter (repeatable or comma-separated: analysts spread round-robin; empty = boot one in-process)", func(v string) error {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				o.addrs = append(o.addrs, part)
			}
		}
		return nil
	})
	flag.StringVar(&o.dataset, "dataset", "census", "registered dataset name the sessions explore")
	flag.StringVar(&o.dataDir, "data", "", "directory of *.aware snapshots the in-process server mmaps and serves instead of the generated census; the -dataset snapshot must hold a census of -rows/-seed for scenario pre-validation (ignored with -addr)")
	flag.DurationVar(&o.think, "think", 0, "pause between one analyst's operations (0 = closed loop)")
	flag.StringVar(&o.thinkDist, "think-dist", "fixed", "think-time distribution around -think: fixed, lognormal, exponential")
	flag.Int64Var(&o.loadSeed, "load-seed", 0, "seed for load-side randomness: analyst choices, popularity, think times, arrivals (0 = time-derived; the resolved value is always logged and recorded)")
	flag.IntVar(&o.minSupport, "min-support", 100, "minimum sub-population size a scenario predicate may select")
	flag.BoolVar(&o.openLoop, "openloop", false, "open-loop mode: schedule arrivals at fixed target rates and measure latency from intended start (knee curve)")
	flag.Float64Var(&o.rps, "rps", 0, "open loop: single target arrival rate in ops/s (alternative to -rps-sweep)")
	flag.StringVar(&o.rpsSweep, "rps-sweep", "", "open loop: lo:hi:steps target-rate sweep, e.g. 40:120:5 — one knee point per rate")
	flag.StringVar(&o.arrival, "arrival", "poisson", "open loop: arrival process: poisson, uniform, burst")
	flag.IntVar(&o.burst, "burst", 32, "open loop: arrivals per group of the burst process")
	flag.IntVar(&o.inFlight, "inflight", 256, "open loop: max concurrently executing operations")
	flag.IntVar(&o.opsPerSession, "ops-per-session", 8, "open loop: operations a session slot serves before being recycled")
	flag.Float64Var(&o.zipf, "zipf", 1.1, "open loop: Zipf skew (>1) of session and scenario-item popularity")
	flag.StringVar(&o.benchOut, "benchout", "BENCH_http.json", "output path for the machine-readable report")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the post-run /debug/trace document to this path (empty = skip)")
	flag.BoolVar(&o.checkLeaks, "check-leaks", false, "fail if the server's live-session count does not return to its pre-run value")
	flag.BoolVar(&o.checkObs, "check-obs", false, "fail on a malformed /metrics exposition or a run that captured zero request traces")
	flag.BoolVar(&o.checkAffinity, "check-affinity", false, "fail if any session's requests were served by more than one cluster node (X-Aware-Node affinity)")
	flag.StringVar(&o.clusterSizes, "cluster", "", "cluster bench mode: comma-separated node counts, e.g. 1,2,4 — boots each cluster from child awared processes (GOMAXPROCS=1 each) behind an in-process router and records the scaling curve")
	flag.StringVar(&o.awaredBin, "awared-bin", "", "path to the awared binary the cluster bench spawns nodes from (required with -cluster)")
	flag.StringVar(&o.clusterOut, "cluster-out", "BENCH_cluster.json", "output path for the cluster scaling report")
	flag.Float64Var(&o.minClusterSpeedup, "min-cluster-speedup", 0, "fail if 2-node throughput is below this multiple of 1-node throughput (0 disables; skipped with a notice on hosts with fewer than 4 CPUs)")
	flag.IntVar(&o.workers, "workers", 0, "execution pool size of the in-process server (0 = GOMAXPROCS, 1 = sequential; ignored with -addr)")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	flag.StringVar(&o.logFormat, "log-format", "json", "log format: json, text")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "awareload: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	logger, err := newLogger(o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	sc, err := loadgen.ParseScenario(o.scenario)
	if err != nil {
		return err
	}
	// The scenario source: a local census identical (by rows and seed) to the
	// served one, so predicate pre-validation reflects the server's data.
	table, err := census.Generate(census.Config{Rows: o.rows, Seed: o.seed, SignalStrength: 1})
	if err != nil {
		return err
	}

	if o.clusterSizes != "" {
		return runClusterBench(o, logger, table, sc)
	}

	targets := o.addrs
	if len(targets) == 0 {
		url, stop, err := startInProcess(table, o.dataset, o.workers, o.dataDir, logger)
		if err != nil {
			return err
		}
		defer stop()
		targets = []string{url}
		if o.dataDir != "" {
			logger.Info("serving snapshots in-process", "data", o.dataDir, "url", url)
		} else {
			logger.Info("serving census in-process", "rows", o.rows, "url", url)
		}
	}
	base := targets[0]

	before, err := loadgen.SessionCount(base, nil)
	if err != nil {
		return fmt.Errorf("probing %s: %w", base, err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	cfg := loadgen.Config{
		BaseURL:    base,
		Targets:    targets,
		Dataset:    o.dataset,
		Table:      table,
		Scenario:   sc,
		Sessions:   o.sessions,
		Duration:   o.duration,
		Seed:       o.seed,
		LoadSeed:   o.loadSeed,
		Think:      o.think,
		ThinkDist:  o.thinkDist,
		MinSupport: o.minSupport,
	}

	// Either mode rewrites only its own section of the benchmark document, so
	// the committed closed-loop report and knee curve refresh independently.
	doc, err := loadgen.LoadDocument(o.benchOut)
	if err != nil {
		return err
	}

	var totalErrors, totalRequests int64
	var samples []string
	if o.openLoop {
		targets, err := sweepTargets(o)
		if err != nil {
			return err
		}
		arrival, err := loadgen.ParseArrival(o.arrival)
		if err != nil {
			return err
		}
		logger.Info("open-loop sweep starting", "arrival", string(arrival), "targets", targets,
			"session_pool", o.sessions, "point_duration", o.duration, "target", base, "dataset", o.dataset)
		res, err := loadgen.RunOpenLoop(ctx, loadgen.OpenLoopConfig{
			Config:        cfg,
			Arrival:       arrival,
			TargetRPS:     targets,
			BurstSize:     o.burst,
			MaxInFlight:   o.inFlight,
			OpsPerSession: o.opsPerSession,
			ZipfS:         o.zipf,
		})
		if err != nil {
			return err
		}
		if len(o.addrs) == 0 {
			res.Rows = o.rows
		}
		logger.Info("open-loop sweep finished", "load_seed", res.LoadSeed, "points", len(res.Points))
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		if err := res.Validate(); err != nil {
			return err
		}
		doc.OpenLoop = res
		totalErrors, totalRequests, samples = res.TotalErrors, res.TotalRequests, res.ErrorSamples
		if o.checkObs {
			logger.Warn("-check-obs applies to closed-loop runs only; ignoring")
		}
		if o.checkAffinity {
			logger.Warn("-check-affinity applies to closed-loop runs only; ignoring")
		}
	} else {
		logger.Info("load run starting", "scenario", string(sc), "sessions", o.sessions,
			"duration", o.duration, "target", base, "dataset", o.dataset)
		res, err := loadgen.Run(ctx, cfg)
		if err != nil {
			return err
		}
		if len(o.addrs) == 0 {
			// Only the in-process server's size is known for certain; a remote
			// server may serve a different table than the local scenario source.
			res.Rows = o.rows
		}
		logger.Info("load run finished", "load_seed", res.LoadSeed)
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		doc.ClosedLoop = res
		totalErrors, totalRequests, samples = res.TotalErrors, res.TotalRequests, res.ErrorSamples
		if o.checkObs {
			if err := res.Observability.Check(); err != nil {
				return fmt.Errorf("observability check failed: %w", err)
			}
			logger.Info("observability check passed",
				"metric_samples", res.Observability.MetricsSamples,
				"traces_captured", res.Observability.TraceCapturedDelta)
		}
		if o.checkAffinity {
			if res.MultiNodeSessions > 0 {
				return fmt.Errorf("affinity check failed: %d sessions were served by more than one node", res.MultiNodeSessions)
			}
			logger.Info("affinity check passed", "nodes", len(res.Nodes))
		}
	}

	if err := benchio.WriteFileJSON(o.benchOut, doc); err != nil {
		return err
	}
	logger.Info("report written", "path", o.benchOut)

	if o.traceOut != "" {
		if err := writeTraceArtifact(base, o.traceOut); err != nil {
			return fmt.Errorf("saving trace artifact: %w", err)
		}
		logger.Info("trace artifact written", "path", o.traceOut)
	}

	after, err := loadgen.SessionCount(base, nil)
	if err != nil {
		return fmt.Errorf("probing %s after the run: %w", base, err)
	}
	leaked := after - before
	logger.Info("live sessions probed", "before", before, "after", after)

	if totalErrors > 0 {
		return fmt.Errorf("%d of %d requests failed (first: %v)", totalErrors, totalRequests, firstSample(samples))
	}
	if o.checkLeaks && leaked != 0 {
		return fmt.Errorf("session leak: live count went from %d to %d", before, after)
	}
	return nil
}

// sweepTargets resolves -rps-sweep / -rps into the swept target rates.
// "lo:hi:steps" spaces steps rates linearly from lo to hi inclusive.
func sweepTargets(o options) ([]float64, error) {
	if o.rpsSweep == "" {
		if o.rps <= 0 {
			return nil, fmt.Errorf("open loop needs -rps-sweep lo:hi:steps or -rps rate")
		}
		return []float64{o.rps}, nil
	}
	var lo, hi float64
	var steps int
	if _, err := fmt.Sscanf(o.rpsSweep, "%f:%f:%d", &lo, &hi, &steps); err != nil {
		return nil, fmt.Errorf("malformed -rps-sweep %q (want lo:hi:steps): %w", o.rpsSweep, err)
	}
	if lo <= 0 || hi < lo || steps < 1 || (steps == 1 && hi != lo) {
		return nil, fmt.Errorf("malformed -rps-sweep %q: need 0 < lo <= hi and steps >= 2 (or steps = 1 with lo = hi)", o.rpsSweep)
	}
	targets := make([]float64, steps)
	for i := range targets {
		if steps == 1 {
			targets[i] = lo
			break
		}
		targets[i] = lo + (hi-lo)*float64(i)/float64(steps-1)
	}
	return targets, nil
}

// writeTraceArtifact saves the server's full /debug/trace document — the CI
// artifact a red smoke run is debugged from.
func writeTraceArtifact(base, path string) error {
	body, err := loadgen.FetchBody(nil, base+"/debug/trace")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// newLogger builds the status logger on stderr: structured JSON by default,
// text for humans. Stdout stays reserved for the run report.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want json or text)", format)
	}
}

// startInProcess boots awared on a loopback listener. With dataDir empty it
// registers the generated census table; otherwise it mmaps every snapshot in
// dataDir and verifies the scenario's dataset is among them with the expected
// row count — the load generator pre-validates predicates against its local
// census, so serving a snapshot of different data would make the run lie.
func startInProcess(table *dataset.Table, datasetName string, workers int, dataDir string, logger *slog.Logger) (url string, stop func(), err error) {
	srv, err := server.New(server.Config{
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Workers: workers,
	})
	if err != nil {
		return "", nil, err
	}
	if dataDir == "" {
		if err := srv.Registry().Register(datasetName, table); err != nil {
			return "", nil, err
		}
	} else {
		n, err := srv.Registry().RegisterSnapshotDir(dataDir, logger)
		if err != nil {
			return "", nil, err
		}
		served, err := srv.Registry().Get(datasetName)
		if err != nil {
			return "", nil, fmt.Errorf("-data %s registered %d snapshots but none named %q: %w", dataDir, n, datasetName, err)
		}
		if served.NumRows() != table.NumRows() {
			return "", nil, fmt.Errorf("snapshot %q has %d rows, scenario source has %d (pass matching -rows/-seed)",
				datasetName, served.NumRows(), table.NumRows())
		}
	}
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func() { ts.Close(); srv.Close() }, nil
}

func firstSample(samples []string) string {
	if len(samples) == 0 {
		return "no sample recorded"
	}
	return samples[0]
}
