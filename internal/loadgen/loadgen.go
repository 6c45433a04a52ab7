// Package loadgen is the closed-loop load generator for awared: it simulates
// the interactive-exploration traffic the paper's user study generates
// (Section 6) — N concurrent "analysts", each owning a private FDR-controlled
// session, each issuing its next request as soon as the previous response
// arrives — and records per-endpoint latency histograms, throughput and error
// counts. Scenarios are sourced from the census user-study workflow generator
// (census.ValidatedWorkflow), so the request mix has the same shape real
// sessions produce and every predicate is pre-validated against the served
// table: under a correctly functioning server a run finishes with zero
// non-2xx responses, which is what lets CI treat any error as a failure.
//
// The generator drives a real HTTP server — in-process (httptest) or remote —
// through the typed v1 client in internal/client, the same request path every
// other Go consumer uses; nothing is measured through Go function calls. The
// target may be a single awared or an awarerouter fronting a cluster: the
// client reports the serving node of every response (X-Aware-Node), and the
// result records per-node request counts plus how many sessions were served
// by more than one node — zero under healthy consistent-hash affinity.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/dataset"
)

// Scenario names a workload mix.
type Scenario string

// The closed set of scenarios.
const (
	// ScenarioFilter is filter-heavy: a stream of filtered visualizations
	// (rule-2 hypotheses) with periodic gauge reads — the drill-down loop of
	// Figure 1.
	ScenarioFilter Scenario = "filter"
	// ScenarioViz is visualization-heavy: complementary charts, side-by-side
	// comparisons (rule 3), gauge and report reads.
	ScenarioViz Scenario = "viz"
	// ScenarioSteps is steps/replay-heavy: raw step commands, step-log reads
	// and whole-log hold-out replays — the most server-CPU-intensive mix.
	ScenarioSteps Scenario = "steps"
	// ScenarioHoldout is holdout-validation-heavy: repeated mean-comparison
	// validations on fresh exploration/validation splits.
	ScenarioHoldout Scenario = "holdout"
	// ScenarioMixed draws one of the four mixes per session, weighted to
	// resemble a fleet of analysts at different stages of exploration.
	ScenarioMixed Scenario = "mixed"
)

// Scenarios lists every named scenario.
func Scenarios() []Scenario {
	return []Scenario{ScenarioFilter, ScenarioViz, ScenarioSteps, ScenarioHoldout, ScenarioMixed}
}

// ParseScenario validates a scenario name.
func ParseScenario(s string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if s == string(sc) {
			return sc, nil
		}
	}
	return "", fmt.Errorf("loadgen: unknown scenario %q (want one of filter, viz, steps, holdout, mixed)", s)
}

// Config configures a load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Targets optionally spreads the analysts over several servers
	// round-robin (multiple routers, or direct nodes of a cluster); empty
	// means everyone drives BaseURL. When set, BaseURL defaults to the first
	// target and is the address probes and metric scrapes use.
	Targets []string
	// Dataset is the registered dataset name sessions explore.
	Dataset string
	// Table is a local copy of the served dataset, used to source and
	// pre-validate scenario predicates. It must have the census schema.
	Table *dataset.Table
	// Scenario selects the workload mix.
	Scenario Scenario
	// Sessions is the number of concurrent simulated analysts; each owns at
	// most one live session at a time (closed loop).
	Sessions int
	// Duration is how long new work is issued; in-flight sessions finish
	// their current operation and are cleaned up afterwards.
	Duration time.Duration
	// Seed drives scenario sourcing (the validated workflow pool). It is
	// data-coupled: the same seed against the same table yields the same
	// predicate pool.
	Seed int64
	// LoadSeed drives the load-side randomness — per-analyst scenario
	// sampling, item popularity and think-time draws. 0 means time-derived
	// (a fresh run each time); the resolved value is always recorded in the
	// result so any run can be reproduced exactly.
	LoadSeed int64
	// Think pauses between consecutive operations of one analyst; 0 means a
	// fully closed loop (next request immediately after the last response).
	Think time.Duration
	// ThinkDist shapes the think-time draws around Think: "fixed" (default),
	// "lognormal" (right-skewed, σ=0.6, mean-preserving — the census
	// user-study shape) or "exponential". Each scenario scales the mean:
	// filter-loop analysts think half as long as the baseline, holdout
	// analysts twice as long.
	ThinkDist string
	// MinSupport is the minimum sub-population size a scenario predicate may
	// select (and leave as complement); 0 means 100.
	MinSupport int
	// PoolSize is how many validated workflow steps the scenarios draw from;
	// 0 means 64.
	PoolSize int
	// HTTPClient overrides the client; nil means a dedicated client with
	// sensible timeouts.
	HTTPClient *http.Client
	// MaxErrorSamples bounds how many error descriptions are kept verbatim in
	// the result; 0 means 10.
	MaxErrorSamples int
}

func (cfg *Config) withDefaults() (Config, error) {
	c := *cfg
	if c.BaseURL == "" && len(c.Targets) > 0 {
		c.BaseURL = c.Targets[0]
	}
	if c.BaseURL == "" {
		return c, fmt.Errorf("loadgen: missing BaseURL")
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if len(c.Targets) == 0 {
		c.Targets = []string{c.BaseURL}
	}
	targets := make([]string, len(c.Targets))
	for i, t := range c.Targets {
		if t == "" {
			return c, fmt.Errorf("loadgen: empty target URL at index %d", i)
		}
		targets[i] = strings.TrimRight(t, "/")
	}
	c.Targets = targets
	if c.Table == nil {
		return c, fmt.Errorf("loadgen: missing Table for scenario sourcing")
	}
	if c.Dataset == "" {
		c.Dataset = "census"
	}
	if c.Scenario == "" {
		c.Scenario = ScenarioMixed
	}
	if _, err := ParseScenario(string(c.Scenario)); err != nil {
		return c, err
	}
	if c.Sessions <= 0 {
		return c, fmt.Errorf("loadgen: Sessions must be positive, got %d", c.Sessions)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 100
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 64
	}
	if c.MaxErrorSamples <= 0 {
		c.MaxErrorSamples = 10
	}
	switch c.ThinkDist {
	case "":
		c.ThinkDist = "fixed"
	case "fixed", "lognormal", "exponential":
	default:
		return c, fmt.Errorf("loadgen: unknown think distribution %q (want fixed, lognormal or exponential)", c.ThinkDist)
	}
	if c.LoadSeed == 0 {
		c.LoadSeed = time.Now().UnixNano()
	}
	if c.HTTPClient == nil {
		// Go's default Transport keeps only 2 idle keep-alive connections per
		// host; with N concurrent closed-loop analysts that would re-dial TCP
		// on most requests, measuring handshakes instead of the server and
		// piling up TIME_WAIT sockets. Size the pool to the analyst count.
		transport := http.DefaultTransport.(*http.Transport).Clone()
		if transport.MaxIdleConnsPerHost < c.Sessions {
			transport.MaxIdleConnsPerHost = c.Sessions
		}
		if transport.MaxIdleConns < c.Sessions {
			transport.MaxIdleConns = c.Sessions
		}
		c.HTTPClient = &http.Client{Timeout: 60 * time.Second, Transport: transport}
	}
	return c, nil
}

// scenarioItem is one pre-marshaled workflow step ready to be sent: the
// filter (and its complement, for comparison-shaped items) as predicate JSON.
type scenarioItem struct {
	kind     census.HypothesisKind
	target   string
	pred     json.RawMessage
	predNot  json.RawMessage
	holdouts []string // numeric attributes safe to validate under this filter
}

// buildPool sources the scenario items from the census workflow generator,
// keeping only steps whose filter and complement both clear MinSupport.
func buildPool(cfg Config) ([]scenarioItem, error) {
	w, err := census.ValidatedWorkflow(cfg.Table, census.WorkflowConfig{
		Hypotheses:    cfg.PoolSize,
		Seed:          cfg.Seed,
		MaxChainDepth: 2,
	}, cfg.MinSupport)
	if err != nil {
		return nil, err
	}
	items := make([]scenarioItem, 0, w.Len())
	for _, ws := range w.Steps {
		pred, err := dataset.MarshalPredicate(ws.Filter)
		if err != nil {
			return nil, err
		}
		item := scenarioItem{
			kind:     ws.Kind,
			target:   ws.Target,
			pred:     pred,
			holdouts: []string{census.ColAge, census.ColHoursPerWeek},
		}
		if ws.Kind == census.FilterVsComplement {
			predNot, err := dataset.MarshalPredicate(dataset.Not{Inner: ws.Filter})
			if err != nil {
				return nil, err
			}
			item.predNot = predNot
		}
		items = append(items, item)
	}
	return items, nil
}

// splitPool partitions the items into population-shaped and complement-shaped
// pools; the comparison scripts need the latter (both sides validated).
func splitPool(items []scenarioItem) (pop, comp []scenarioItem, err error) {
	for _, it := range items {
		if it.kind == census.FilterVsComplement {
			comp = append(comp, it)
		} else {
			pop = append(pop, it)
		}
	}
	if len(pop) == 0 || len(comp) == 0 {
		return nil, nil, fmt.Errorf("loadgen: scenario pool is degenerate: %d population-shaped, %d complement-shaped items", len(pop), len(comp))
	}
	return pop, comp, nil
}

// collector aggregates observations from every analyst.
type collector struct {
	mu        sync.Mutex
	endpoints map[string]*endpointRecord
	errors    int64
	samples   []string
	maxSample int
	sessions  int64 // completed session lifecycles

	// nodes counts requests per serving node (the X-Aware-Node response
	// header); empty against a server that doesn't identify itself.
	nodes map[string]int64
	// multiNode counts completed sessions whose requests were answered by
	// more than one node — affinity violations under a healthy router,
	// expected only across a mid-run failover.
	multiNode int64

	// schedLag distributes scheduled-start vs actual-start deltas of
	// closed-loop operations — the coordinated-omission honesty number: a
	// closed-loop client that falls behind its own schedule silently stops
	// offering load, and this histogram is how far behind it ran.
	schedLag Histogram
}

type endpointRecord struct {
	hist   Histogram
	errors int64
}

func newCollector(maxSamples int) *collector {
	return &collector{
		endpoints: make(map[string]*endpointRecord),
		nodes:     make(map[string]int64),
		maxSample: maxSamples,
	}
}

func (c *collector) observe(endpoint, node string, d time.Duration, errDesc string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.endpoints[endpoint]
	if !ok {
		rec = &endpointRecord{}
		c.endpoints[endpoint] = rec
	}
	rec.hist.Observe(d)
	if node != "" {
		c.nodes[node]++
	}
	if errDesc != "" {
		rec.errors++
		c.errors++
		if len(c.samples) < c.maxSample {
			c.samples = append(c.samples, errDesc)
		}
	}
}

func (c *collector) observeLag(d time.Duration) {
	c.mu.Lock()
	c.schedLag.Observe(d)
	c.mu.Unlock()
}

func (c *collector) sessionDone(nodesSeen int) {
	c.mu.Lock()
	c.sessions++
	if nodesSeen > 1 {
		c.multiNode++
	}
	c.mu.Unlock()
}

// apiClient is one goroutine's view of the server: the typed v1 client from
// internal/client with its per-call Observer feeding the shared collector.
// Endpoint labels are the client's route shapes ("POST /v1/sessions"), so the
// client-side report and GET /debug/metrics key their numbers identically.
// An apiClient is owned by exactly one goroutine — the schedule and node
// tracking fields are unsynchronized by design.
type apiClient struct {
	api *client.Client
	col *collector

	// schedule turns on scheduled-start tracking: next is when this client's
	// next operation is supposed to begin (previous completion plus think
	// time), and every call records actual-start minus next as sched lag.
	// Closed-loop analysts set it; open-loop dispatchers track intended
	// start times externally and leave it off.
	schedule bool
	next     time.Time

	// last is the most recent completed call, captured by the Observer for
	// record(); seen distinguishes it from a call that failed before any
	// round trip (an encode error observes nothing).
	last client.Call
	seen bool

	// nodes accumulates the serving nodes of the current session's requests
	// (reset per session lifecycle); nil disables affinity tracking.
	nodes map[string]bool
}

func newAPIClient(base string, hc *http.Client, col *collector, schedule bool) *apiClient {
	a := &apiClient{col: col, schedule: schedule}
	a.api = client.New(base, client.WithHTTPClient(hc), client.WithObserver(a.observeCall))
	return a
}

// observeCall is the client Observer: it runs synchronously after every
// completed round trip, before the typed method returns.
func (a *apiClient) observeCall(call client.Call) {
	a.last, a.seen = call, true
	if a.schedule {
		if !a.next.IsZero() {
			lag := call.Start.Sub(a.next)
			if lag < 0 {
				lag = 0
			}
			a.col.observeLag(lag)
		}
		// The next operation is scheduled for this one's completion (plus any
		// think time, added by think()).
		a.next = call.Start.Add(call.Duration)
	}
	if call.Node != "" && a.nodes != nil {
		a.nodes[call.Node] = true
	}
}

// record folds a typed call's outcome together with the Observer-captured
// timing into the collector; it must follow every client call on this
// apiClient. The error passes through unchanged.
func (a *apiClient) record(err error) error {
	if !a.seen {
		// The call never reached the wire (an encode failure); count the
		// error without latency so the totals stay honest.
		if err != nil {
			a.col.observe("(client)", "", 0, err.Error())
		}
		return err
	}
	a.seen = false
	desc := ""
	if err != nil {
		desc = truncate(err.Error(), 240)
	}
	a.col.observe(a.last.Endpoint, a.last.Node, a.last.Duration, desc)
	return err
}

func (a *apiClient) resetNodes() { a.nodes = make(map[string]bool) }

func truncate(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// explorer is one simulated analyst: a private rng, the shared pools and the
// shared collector.
type explorer struct {
	cfg  Config
	c    *apiClient
	rng  *rand.Rand
	pop  []scenarioItem
	comp []scenarioItem

	// callCtx is the context requests are issued under: the run's PARENT
	// context, not the deadline-bounded run context. The deadline stops new
	// scenario work (scripts poll ctx.Err()), but an in-flight lifecycle
	// finishes its current operation and its DELETE — cancelling mid-request
	// at the deadline would count rig-induced errors and leak sessions.
	callCtx context.Context

	// scenario is the resolved mix of the current session (mixed draws a
	// concrete one per session); it scales the think-time mean.
	scenario Scenario
}

func (e *explorer) pick(pool []scenarioItem) scenarioItem {
	return pool[e.rng.Intn(len(pool))]
}

// thinkScale is the per-scenario multiplier on the think-time mean: the
// drill-down filter loop is rapid-fire, holdout validation is deliberate.
func (e *explorer) thinkScale() float64 {
	switch e.scenario {
	case ScenarioFilter:
		return 0.5
	case ScenarioSteps:
		return 1.5
	case ScenarioHoldout:
		return 2.0
	default:
		return 1.0
	}
}

// thinkDelay draws one think time from the configured distribution around
// the scenario-scaled mean.
func (e *explorer) thinkDelay() time.Duration {
	if e.cfg.Think <= 0 {
		return 0
	}
	mean := float64(e.cfg.Think) * e.thinkScale()
	switch e.cfg.ThinkDist {
	case "exponential":
		return time.Duration(e.rng.ExpFloat64() * mean)
	case "lognormal":
		// Mean-preserving lognormal: E[exp(μ+σZ)] = exp(μ+σ²/2) = mean.
		const sigma = 0.6
		mu := math.Log(mean) - sigma*sigma/2
		return time.Duration(math.Exp(mu + sigma*e.rng.NormFloat64()))
	default: // fixed
		return time.Duration(mean)
	}
}

func (e *explorer) think(ctx context.Context) {
	d := e.thinkDelay()
	if d <= 0 {
		return
	}
	// Thinking moves the schedule forward deliberately: the next operation
	// is supposed to start after the pause, so the pause itself is not lag.
	if e.c.schedule && !e.c.next.IsZero() {
		e.c.next = e.c.next.Add(d)
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// sessionScript is one session's worth of operations after creation.
type sessionScript func(e *explorer, ctx context.Context, id int64) error

// script selects the per-session script for the configured scenario.
func (e *explorer) script() sessionScript {
	sc := e.cfg.Scenario
	if sc == ScenarioMixed {
		// Weighted toward the cheap filter loop, as a real fleet is.
		switch roll := e.rng.Float64(); {
		case roll < 0.35:
			sc = ScenarioFilter
		case roll < 0.60:
			sc = ScenarioViz
		case roll < 0.80:
			sc = ScenarioSteps
		default:
			sc = ScenarioHoldout
		}
	}
	e.scenario = sc
	switch sc {
	case ScenarioFilter:
		return (*explorer).filterScript
	case ScenarioViz:
		return (*explorer).vizScript
	case ScenarioSteps:
		return (*explorer).stepsScript
	default:
		return (*explorer).holdoutScript
	}
}

// runSession drives one full session lifecycle: create, script, destroy. The
// delete always runs — leaked sessions are a bug the smoke test looks for.
func (e *explorer) runSession(ctx context.Context) error {
	e.c.resetNodes()
	info, err := e.c.api.CreateSession(e.callCtx, api.SessionSpec{Dataset: e.cfg.Dataset})
	if err = e.c.record(err); err != nil {
		return err
	}
	script := e.script()
	scriptErr := script(e, ctx, info.ID)
	delErr := e.c.record(e.c.api.DeleteSession(e.callCtx, info.ID))
	if scriptErr != nil {
		return scriptErr
	}
	if delErr != nil {
		return delErr
	}
	e.c.col.sessionDone(len(e.c.nodes))
	return nil
}

// addViz posts one add_visualization step command through the generic step
// endpoint, in the raw wire form a scripting client would send.
func (e *explorer) addViz(id int64, target string, pred json.RawMessage) error {
	raw, err := json.Marshal(map[string]any{"op": "add_visualization", "target": target, "predicate": pred})
	if err != nil {
		return err
	}
	_, err = e.c.api.ApplyRawStep(e.callCtx, id, raw)
	return e.c.record(err)
}

// compare posts one compare_visualizations step (rule 3) for visualizations a
// and b, in the same raw wire form as addViz.
func (e *explorer) compare(id int64, a, b int) error {
	raw, err := json.Marshal(map[string]any{"op": "compare_visualizations", "a": a, "b": b})
	if err != nil {
		return err
	}
	_, err = e.c.api.ApplyRawStep(e.callCtx, id, raw)
	return e.c.record(err)
}

// filterScript: 8 filtered visualizations with a gauge read every fourth — an
// analyst drilling down and watching the risk gauge.
func (e *explorer) filterScript(ctx context.Context, id int64) error {
	for i := 0; i < 8; i++ {
		if ctx.Err() != nil {
			return nil
		}
		item := e.pick(e.pop)
		if err := e.addViz(id, item.target, item.pred); err != nil {
			return err
		}
		if i%4 == 3 {
			_, err := e.c.api.Gauge(e.callCtx, id)
			if err = e.c.record(err); err != nil {
				return err
			}
		}
		e.think(ctx)
	}
	_, err := e.c.api.Report(e.callCtx, id)
	return e.c.record(err)
}

// vizScript: charts with rule-3 comparisons and a gauge read after each —
// two rounds of (filter chart, complement chart, compare, gauge).
func (e *explorer) vizScript(ctx context.Context, id int64) error {
	vizCount := 0
	for round := 0; round < 2; round++ {
		if ctx.Err() != nil {
			return nil
		}
		item := e.pick(e.comp)
		for _, pred := range []json.RawMessage{item.pred, item.predNot} {
			if err := e.addViz(id, item.target, pred); err != nil {
				return err
			}
			vizCount++
			e.think(ctx)
		}
		if err := e.compare(id, vizCount-1, vizCount); err != nil {
			return err
		}
		_, err := e.c.api.Gauge(e.callCtx, id)
		if err = e.c.record(err); err != nil {
			return err
		}
		e.think(ctx)
	}
	_, err := e.c.api.Report(e.callCtx, id)
	return e.c.record(err)
}

// stepsScript: raw step commands (the CoreSteps lowering of two workflow
// steps), a step-log read, and a whole-log hold-out replay — the heaviest
// per-request mix.
func (e *explorer) stepsScript(ctx context.Context, id int64) error {
	vizCount := 0
	for i := 0; i < 2; i++ {
		if ctx.Err() != nil {
			return nil
		}
		item := e.pick(e.comp)
		if err := e.addViz(id, item.target, item.pred); err != nil {
			return err
		}
		if err := e.addViz(id, item.target, item.predNot); err != nil {
			return err
		}
		vizCount += 2
		if err := e.compare(id, vizCount-1, vizCount); err != nil {
			return err
		}
		e.think(ctx)
	}
	_, err := e.c.api.Log(e.callCtx, id)
	if err = e.c.record(err); err != nil {
		return err
	}
	_, err = e.c.api.HoldoutReplay(e.callCtx, id, api.HoldoutReplayRequest{Seed: e.rng.Int63n(1<<31) + 1})
	return e.c.record(err)
}

// holdoutScript: one tracked hypothesis, then repeated mean-comparison
// validations on fresh splits with varying seeds.
func (e *explorer) holdoutScript(ctx context.Context, id int64) error {
	item := e.pick(e.comp)
	if err := e.addViz(id, item.target, item.pred); err != nil {
		return err
	}
	e.think(ctx)
	for i := 0; i < 3; i++ {
		if ctx.Err() != nil {
			return nil
		}
		attr := item.holdouts[e.rng.Intn(len(item.holdouts))]
		_, err := e.c.api.HoldoutValidate(e.callCtx, id, api.HoldoutValidateRequest{
			Attribute: attr,
			Predicate: item.pred,
			Seed:      e.rng.Int63n(1<<31) + 1,
		})
		if err = e.c.record(err); err != nil {
			return err
		}
		e.think(ctx)
	}
	return nil
}

// Run executes the configured load against the server and returns the report.
// It creates only sessions it also deletes; after a clean run the server's
// live-session count is back where it started. Errors inside the workload
// (non-2xx responses, transport failures) do not abort the run — they are
// counted per endpoint and surfaced in the result, so one bad response still
// yields a full latency report. Run itself errors only on misconfiguration
// (unreachable server, degenerate scenario pool).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	items, err := buildPool(c)
	if err != nil {
		return nil, err
	}
	pop, comp, err := splitPool(items)
	if err != nil {
		return nil, err
	}
	col := newCollector(c.MaxErrorSamples)

	// One un-recorded probe per target so a wrong URL is a setup error, not a
	// thousand counted request failures.
	for _, target := range c.Targets {
		probe := client.New(target, client.WithHTTPClient(c.HTTPClient))
		if _, err := probe.Health(ctx); err != nil {
			return nil, fmt.Errorf("loadgen: server probe failed for %s: %w", target, err)
		}
	}

	// Trace-ring baseline, so the report carries the run's own capture delta
	// rather than a long-running server's lifetime total. A failed baseline is
	// not fatal here: the post-run scrape records the real error.
	baseCaptured := uint64(0)
	if st, err := scrapeTrace(c.HTTPClient, c.BaseURL, 0); err == nil {
		baseCaptured = st.Captured
	}

	runCtx, cancel := context.WithTimeout(ctx, c.Duration)
	defer cancel()

	// Scrape /metrics halfway through the load window: the exposition must be
	// well-formed while its counters are being hammered, not just at rest.
	type midScrape struct {
		samples int
		err     error
		ran     bool
	}
	midc := make(chan midScrape, 1)
	go func() {
		select {
		case <-runCtx.Done():
			midc <- midScrape{}
		case <-time.After(c.Duration / 2):
			samples, err := ScrapeMetrics(c.HTTPClient, c.BaseURL)
			midc <- midScrape{samples: samples, err: err, ran: true}
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < c.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := &explorer{
				cfg:     c,
				c:       newAPIClient(c.Targets[i%len(c.Targets)], c.HTTPClient, col, true),
				rng:     rand.New(rand.NewSource(c.LoadSeed + int64(i)*7919)),
				pop:     pop,
				comp:    comp,
				callCtx: ctx,
			}
			for runCtx.Err() == nil {
				// Session lifecycles run to completion even when the deadline
				// passes mid-script: scripts stop issuing new scenario work on
				// ctx.Err(), and runSession always deletes what it created.
				if err := e.runSession(runCtx); err != nil {
					// Back off briefly after a failed lifecycle so a server
					// that died mid-run yields a bounded error count instead
					// of a connection-refused busy-loop.
					select {
					case <-runCtx.Done():
					case <-time.After(100 * time.Millisecond):
					}
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := buildResult(c, col, elapsed)
	// Snapshot the server's own counters so client-observed latency and
	// server-side numbers travel together. Routers don't expose the debug
	// snapshot; their merged /metrics exposition covers them instead.
	if body, err := FetchBody(c.HTTPClient, c.BaseURL+"/debug/metrics"); err == nil && json.Valid(body) {
		res.ServerMetrics = json.RawMessage(body)
	}

	// Observability section: the mid-run scrape outcome, the post-run
	// exposition, and the trace ring after the load.
	obsRep := &ObsReport{}
	if m := <-midc; m.ran {
		obsRep.MidRunSamples = m.samples
		if m.err != nil {
			obsRep.MidRunError = m.err.Error()
		}
	}
	if samples, err := ScrapeMetrics(c.HTTPClient, c.BaseURL); err != nil {
		obsRep.MetricsError = err.Error()
	} else {
		obsRep.MetricsSamples = samples
	}
	if st, err := scrapeTrace(c.HTTPClient, c.BaseURL, -1); err != nil {
		obsRep.TraceError = err.Error()
	} else {
		obsRep.TraceCapacity = st.Capacity
		obsRep.TraceCaptured = st.Captured
		obsRep.TraceDropped = st.Dropped
		obsRep.TraceCapturedDelta = st.Captured - baseCaptured
		obsRep.TraceReturned = st.Returned
	}
	res.Observability = obsRep
	return res, nil
}

// SessionCount reports the server's current live-session count via /healthz —
// the before/after probe of the leak check. Against a router the count is the
// cluster-wide sum.
func SessionCount(baseURL string, httpClient *http.Client) (int, error) {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	c := client.New(baseURL, client.WithHTTPClient(httpClient))
	health, err := c.Health(context.Background())
	if err != nil {
		return 0, err
	}
	return health.Sessions, nil
}

// buildResult folds the collector into the serializable report.
func buildResult(cfg Config, col *collector, elapsed time.Duration) *Result {
	col.mu.Lock()
	defer col.mu.Unlock()
	res := &Result{
		Scenario:          string(cfg.Scenario),
		Dataset:           cfg.Dataset,
		Sessions:          cfg.Sessions,
		DurationSeconds:   round3(elapsed.Seconds()),
		LoadSeed:          cfg.LoadSeed,
		ThinkDist:         cfg.ThinkDist,
		SessionsCompleted: col.sessions,
		TotalErrors:       col.errors,
		ErrorSamples:      col.samples,
		MultiNodeSessions: col.multiNode,
	}
	if len(cfg.Targets) > 1 {
		res.Targets = cfg.Targets
	}
	if len(col.nodes) > 0 {
		res.Nodes = make(map[string]int64, len(col.nodes))
		for n, v := range col.nodes {
			res.Nodes[n] = v
		}
	}
	if col.schedLag.Count() > 0 {
		res.SchedLagP50Ms = ms(col.schedLag.Quantile(0.50))
		res.SchedLagP99Ms = ms(col.schedLag.Quantile(0.99))
	}
	res.Endpoints, res.TotalRequests = foldEndpoints(col, elapsed)
	if elapsed > 0 {
		res.RequestsPerSecond = round3(float64(res.TotalRequests) / elapsed.Seconds())
	}
	return res
}

// foldEndpoints renders the collector's per-endpoint histograms into sorted
// results plus the total request count. The caller must hold col.mu.
func foldEndpoints(col *collector, elapsed time.Duration) ([]EndpointResult, int64) {
	var out []EndpointResult
	var total int64
	for endpoint, rec := range col.endpoints {
		h := &rec.hist
		er := EndpointResult{
			Endpoint: endpoint,
			Requests: h.Count(),
			Errors:   rec.errors,
			P50Ms:    ms(h.Quantile(0.50)),
			P95Ms:    ms(h.Quantile(0.95)),
			P99Ms:    ms(h.Quantile(0.99)),
			MeanMs:   ms(h.Mean()),
			MaxMs:    ms(h.Max()),
		}
		if elapsed > 0 {
			er.RequestsPerSecond = round3(float64(h.Count()) / elapsed.Seconds())
		}
		total += h.Count()
		out = append(out, er)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out, total
}

func ms(d time.Duration) float64 { return round3(float64(d.Nanoseconds()) / 1e6) }

// round3 keeps the JSON report readable (microsecond precision on
// millisecond figures).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
