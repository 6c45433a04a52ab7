// Command perfbench is the AWARE serving benchmark. It runs one analyst
// workload against a child awared built from the same checkout and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload explore_30k --seed 1 --seconds 10 --trace 0
//
// A run generates a census snapshot from the seed, then three times starts
// awared as a child process serving only that file, warms it up (setup) and
// drives it for a third of the given seconds with the internal/loadgen
// scenario scripts through the typed internal/client (closed loop, no think
// time, one analyst per CPU, one keep-alive connection each). Finally it
// replays every recorded session in-process to check each answer bit for
// bit. Any failed or wrong answer makes the command exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/colstore"
	"aware/internal/dataset"
	"aware/internal/loadgen"
	"aware/internal/obs"
)

const (
	datasetName = "census"
	// poolSize and minSupport are loadgen's defaults, restated because the
	// warm-up pass must touch exactly the predicates loadgen draws from.
	poolSize   = 64
	minSupport = 100
	// segments is how many times a run sets awared up afresh and measures
	// a third of its window on it. Speed differs from one awared process to
	// the next by more than within one, so pooling three processes steadies
	// every metric; setup_s is the median of the three set-ups.
	segments = 3
)

// workload is one traffic mix against one snapshot size.
type workload struct {
	name    string
	rows    int
	journal bool
	// poolSeed fixes the analysts' question set (the validated predicate
	// pool); the run seed varies the data and the order of the clicks.
	poolSeed int64
	// mix lists the loadgen scenarios; the analysts are split evenly across
	// them and all of them run at once.
	mix []loadgen.Scenario
}

// workloads are the traffic mixes. BENCHMARK.json lists explore_30k and
// validate_300k; drilldown_3m is kept for by-hand runs of the bool-target
// hot path, because its 3M-row kernels are bound by memory bandwidth, which
// other tenants of a shared host move by more than its bound from one
// minute to the next.
var workloads = []workload{
	{name: "explore_30k", rows: 30_000, journal: true, poolSeed: 1, mix: []loadgen.Scenario{loadgen.ScenarioMixed}},
	{name: "drilldown_3m", rows: 3_000_000, journal: false, poolSeed: 2, mix: []loadgen.Scenario{loadgen.ScenarioFilter}},
	{name: "validate_300k", rows: 300_000, journal: true, poolSeed: 3, mix: []loadgen.Scenario{loadgen.ScenarioHoldout, loadgen.ScenarioSteps}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	awared   string
	work     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: explore_30k, drilldown_3m or validate_300k")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the snapshot and the analysts' click order derive from it")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.awared, "awared", "", "awared binary built from this checkout")
	flag.StringVar(&o.work, "work", "", "scratch directory inside the checkout")
	flag.Parse()

	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// derive maps the run seed and a salt to an independent positive seed
// (splitmix64), so snapshot and click order never share a random stream.
func derive(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>1) | 1
}

// poolItem is one validated workflow step of the analysts' question set.
type poolItem struct {
	target string
	filter dataset.Predicate
	preds  []json.RawMessage // the filter, then its complement for comparison items
}

func buildPool(table *dataset.Table, seed int64) ([]poolItem, error) {
	w, err := census.ValidatedWorkflow(table, census.WorkflowConfig{Hypotheses: poolSize, Seed: seed, MaxChainDepth: 2}, minSupport)
	if err != nil {
		return nil, err
	}
	var items []poolItem
	for _, ws := range w.Steps {
		it := poolItem{target: ws.Target, filter: ws.Filter}
		preds := []dataset.Predicate{ws.Filter}
		if ws.Kind == census.FilterVsComplement {
			preds = append(preds, dataset.Not{Inner: ws.Filter})
		}
		for _, p := range preds {
			raw, err := dataset.MarshalPredicate(p)
			if err != nil {
				return nil, err
			}
			it.preds = append(it.preds, raw)
		}
		items = append(items, it)
	}
	return items, nil
}

func addVizBody(target string, pred json.RawMessage) json.RawMessage {
	raw, _ := json.Marshal(map[string]any{"op": "add_visualization", "target": target, "predicate": pred})
	return raw
}

// warmUp touches every pool predicate once, in one short session per item,
// so the selection cache is warm before anything is timed. Failures are not
// returned: every exchange is recorded and checked like any other op.
func warmUp(ctx context.Context, c *client.Client, pool []poolItem) {
	for _, it := range pool {
		info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: datasetName})
		if err != nil {
			continue
		}
		for _, pred := range it.preds {
			_, _ = c.ApplyRawStep(ctx, info.ID, addVizBody(it.target, pred))
		}
		_ = c.DeleteSession(ctx, info.ID)
	}
}

// writeSnapshot streams the seeded census into a snapshot, as
// `awarestore gen` does.
func writeSnapshot(path string, rows int, seed int64) error {
	b, err := colstore.NewRowBuilder(census.Schema(), path)
	if err != nil {
		return err
	}
	cfg := census.Config{Rows: rows, Seed: seed, SignalStrength: 1}
	if err := census.EachRow(cfg, func(_ int, p census.Person) error { return b.Append(p.Row()...) }); err != nil {
		b.Abort()
		return err
	}
	return b.Finish()
}

// segment is one freshly set-up awared with the recorder that drives it.
type segment struct {
	c       *child
	rec     *recorder
	api     *client.Client
	setup   float64 // seconds from spawn until the warm-up pass completed
	base    int     // live sessions before the load
	leaked  int     // live sessions the load left behind
	win     window
	stopped bool

	build      obs.BuildInfo
	gomaxprocs float64 // the server's pool size, GOMAXPROCS by default
}

// setUp starts awared on a fresh journal directory and warms it up, timing
// both together.
func setUp(ctx context.Context, o options, w workload, analysts int, dataDir, workDir string, seg int, pool []poolItem) (*segment, error) {
	journalDir := ""
	if w.journal {
		journalDir = filepath.Join(workDir, fmt.Sprintf("journal-%d", seg))
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &segment{rec: newRecorder(analysts)}
	s.rec.setPhase("warmup")
	start := time.Now()
	c, err := startChild(o.awared, dataDir, journalDir, workDir)
	if err != nil {
		return nil, err
	}
	s.c = c
	s.api = client.New(c.base, client.WithHTTPClient(s.rec.client()))
	warmUp(ctx, s.api, pool)
	s.setup = time.Since(start).Seconds()
	s.rec.setPhase("idle")
	health, err := s.api.Health(ctx)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.base, s.build = health.Sessions, health.Build
	prom, err := scrapeProm(ctx, s.rec.client(), c.base)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gomaxprocs = prom.get("aware_pool_workers")
	return s, nil
}

// finish records leaked sessions and stops the child.
func (s *segment) finish(ctx context.Context) error {
	health, err := s.api.Health(ctx)
	if err != nil {
		return err
	}
	s.leaked = max(health.Sessions-s.base, 0)
	s.stop()
	return nil
}

func (s *segment) stop() {
	if !s.stopped {
		s.stopped = true
		s.c.stop()
		s.rec.next.CloseIdleConnections()
	}
}

// window is one measured load window: the span from its first request to its
// last response, and the child's CPU time and memory sampled when the load
// starts, every second during it, and when it ends.
type window struct {
	phase      string
	start, end time.Time
	samples    []procSample
}

// drive runs the workload's scenario scripts against the server for d, with
// the analysts split evenly across the mix, and returns the window.
func drive(ctx context.Context, s *segment, w workload, table *dataset.Table, analysts int, d time.Duration, loadSeed int64, phase string) (window, error) {
	win := window{phase: phase}
	before, err := s.c.sample()
	if err != nil {
		return win, err
	}
	stop := make(chan struct{})
	sampled := s.c.sampleEvery(time.Second, stop)
	s.rec.setPhase(phase)
	errs := make(chan error, len(w.mix))
	for gi, sc := range w.mix {
		n := analysts / len(w.mix)
		if gi < analysts%len(w.mix) {
			n++
		}
		cfg := loadgen.Config{
			BaseURL:    s.c.base,
			Dataset:    datasetName,
			Table:      table,
			Scenario:   sc,
			Sessions:   n,
			Duration:   d,
			Seed:       w.poolSeed,
			LoadSeed:   derive(loadSeed, uint64(gi)+1),
			PoolSize:   poolSize,
			MinSupport: minSupport,
			HTTPClient: s.rec.client(),
		}
		go func() {
			_, err := loadgen.Run(ctx, cfg)
			errs <- err
		}()
	}
	for range w.mix {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	s.rec.setPhase("idle")
	close(stop)
	during := <-sampled
	if err != nil {
		return win, fmt.Errorf("load run: %w", err)
	}
	after, err := s.c.sample()
	if err != nil {
		return win, err
	}
	win.samples = append(append([]procSample{before}, during...), after)
	ops := opsOf(s.rec.exchanges(phase))
	if len(ops) == 0 {
		return win, fmt.Errorf("window %s completed no operations", phase)
	}
	win.start, win.end = ops[0].start, ops[0].end
	for _, e := range ops {
		if e.end.After(win.end) {
			win.end = e.end
		}
	}
	return win, nil
}

func opsOf(exs []*exchange) []*exchange {
	var out []*exchange
	for _, e := range exs {
		if isOp(e) {
			out = append(out, e)
		}
	}
	return out
}

// latencies returns the client latencies of a class's successful ops, in
// milliseconds.
func latencies(ops []*exchange, class string) []float64 {
	var out []float64
	for _, e := range ops {
		if e.class == class && e.ok() {
			out = append(out, ms(e.latency()))
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of the untraced windows, pooling
// their ops, time and server CPU.
func endToEnd(segs []*segment, table *dataset.Table) (map[string]metric, map[string]float64) {
	var ops []*exchange
	var seconds, cpuMs, peak float64
	var rss []float64
	for _, sg := range segs {
		if sg.win.phase != "window" {
			continue
		}
		ops = append(ops, opsOf(sg.rec.exchanges("window"))...)
		seconds += sg.win.end.Sub(sg.win.start).Seconds()
		first, last := sg.win.samples[0], sg.win.samples[len(sg.win.samples)-1]
		cpuMs += ms(last.cpu - first.cpu)
		peak = max(peak, float64(last.hwmKiB)/1024)
		for _, p := range sg.win.samples {
			rss = append(rss, float64(p.rssKiB)/1024)
		}
	}
	m := map[string]metric{
		"ops_per_s":            {float64(len(ops)) / seconds, "1/s"},
		"server_cpu_ms_per_op": {cpuMs / float64(len(ops)), "ms"},
		// The median of the per-second samples: the peak (VmHWM, reported
		// in the detail line) depends on when the garbage collector ran.
		"rss_mb": {median(rss), "MB"},
	}
	extra := map[string]float64{"peak_rss_mb": peak, "window_ops": float64(len(ops)), "window_s": seconds}
	for _, class := range []string{classStep, classRead, classValidate} {
		lat := sortedCopy(latencies(ops, class))
		extra[class+"_samples"] = float64(len(lat))
		if len(lat) == 0 {
			continue
		}
		extra[class+"_p50_ms"] = quantile(lat, 0.5)
		extra[class+"_p90_ms"] = quantile(lat, 0.9)
		// A p99 needs ten samples beyond it.
		if len(lat) >= 1000 {
			extra[class+"_p99_ms"] = quantile(lat, 0.99)
		}
	}
	for _, name := range []string{"step_p50_ms", "step_p90_ms", "read_p50_ms"} {
		m[name] = metric{extra[name], "ms"}
	}
	// The share of charts on a bool target: at the seed these dominate the
	// drill-down's time, so it explains throughput differences between seeds.
	var charts, boolCharts float64
	for _, e := range ops {
		if c := opClass(table, e); strings.HasPrefix(c, "add_visualization.") {
			charts++
			if c == "add_visualization.bool" {
				boolCharts++
			}
		}
	}
	extra["bool_target_chart_share"] = boolCharts / charts
	return m, extra
}

func run(ctx context.Context, o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.awared == "" || o.work == "" {
		return nil, fmt.Errorf("-awared and -work are required (use perfbench/run.sh)")
	}
	workDir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	// One analyst per CPU, and at least one per scenario of the mix.
	analysts := max(runtime.NumCPU(), len(w.mix))

	// Seeded inputs: the snapshot is the only data awared receives.
	logf("generating %d-row census snapshot (seed %d)", w.rows, o.seed)
	dataDir := filepath.Join(workDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dataDir, datasetName+colstore.SnapshotExt)
	if err := writeSnapshot(snapPath, w.rows, derive(o.seed, 101)); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	snapInfo, err := os.Stat(snapPath)
	if err != nil {
		return nil, err
	}
	table, err := dataset.OpenSnapshot(snapPath)
	if err != nil {
		return nil, err
	}
	defer table.Close()
	pool, err := buildPool(table, w.poolSeed)
	if err != nil {
		return nil, fmt.Errorf("building the question pool: %w", err)
	}

	// Each segment measures a third of the window on its own awared; with
	// --trace 1 the last segment is the traced one.
	var segs []*segment
	defer func() {
		for _, sg := range segs {
			sg.stop()
		}
	}()
	var tr *traced
	part := time.Duration(o.seconds) * time.Second / segments
	for i := 0; i < segments; i++ {
		logf("segment %d/%d: setting up awared, then measuring %s for %v", i+1, segments, w.name, part)
		sg, err := setUp(ctx, o, w, analysts, dataDir, workDir, i, pool)
		if err != nil {
			return nil, err
		}
		segs = append(segs, sg)
		loadSeed := derive(o.seed, 202+uint64(i))
		if o.trace == 1 && i == segments-1 {
			if tr, err = runTraced(ctx, sg, w, table, analysts, part, loadSeed, pool); err != nil {
				return nil, err
			}
		} else if sg.win, err = drive(ctx, sg, w, table, analysts, part, loadSeed, "window"); err != nil {
			return nil, err
		}
		if err := sg.finish(ctx); err != nil {
			return nil, err
		}
	}

	var check checkResult
	attempted, failed := 0, 0
	for _, sg := range segs {
		all := opsOf(sg.rec.exchanges("warmup", "window", "traced", "probe"))
		logf("checking %d answers by in-process replay", len(all))
		c, err := checkAnswers(table, all)
		if err != nil {
			return nil, err
		}
		check.sessions += c.sessions
		check.checked += c.checked
		check.mismatches += c.mismatches
		check.samples = append(check.samples, c.samples...)
		attempted += len(all)
		failed += c.mismatches + sg.leaked
		for _, e := range all {
			if !e.ok() {
				failed++
			}
		}
	}

	e2e, extra := endToEnd(segs, table)
	var setups []float64
	for i, sg := range segs {
		setups = append(setups, sg.setup)
		extra[fmt.Sprintf("setup_%d_s", i+1)] = sg.setup
		extra["leaked_sessions"] += float64(sg.leaked)
	}
	e2e["setup_s"] = metric{median(setups), "s"}
	extra["error_rate"] = float64(failed) / float64(attempted)
	extra["replayed_sessions"] = float64(check.sessions)
	extra["checked_answers"] = float64(check.checked)
	extra["answer_mismatches"] = float64(check.mismatches)

	build := segs[0].build
	prov := map[string]any{
		"workload":             w.name,
		"seed":                 o.seed,
		"seconds":              o.seconds,
		"trace":                o.trace,
		"segments":             segments,
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs":    segs[0].gomaxprocs,
		"go_version":           build.GoVersion,
		"commit":               build.VCSRev,
		"dirty":                build.VCSDirty,
		"analysts":             analysts,
		"rows":                 w.rows,
		"snapshot_bytes":       snapInfo.Size(),
		"journal":              w.journal,
	}
	printJSONLine("provenance", prov)
	printJSONLine("end_to_end", e2e)
	printJSONLine("detail", extra)
	for i, sample := range check.samples {
		if i < 5 {
			fmt.Println("mismatch:", sample)
		}
	}

	res := &result{Correct: check.mismatches == 0 && check.sessions > 0, Attempted: attempted, Failed: failed}
	if o.trace == 0 {
		res.Metrics = e2e
		return res, nil
	}
	tr.untracedOpsPerS = e2e["ops_per_s"].Value
	layers, err := tr.layerMetrics(snapPath, snapInfo.Size(), table, pool, w)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	return res, nil
}

func printJSONLine(label string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s: %s\n", label, raw)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// finite replaces NaN (a metric without samples) by 0 so the result stays
// valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
