package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/investing"
	"aware/internal/obs"
	"aware/internal/server"
	"aware/internal/stats"
)

// The traced run. Its last segment is traced: its throughput against the
// untraced segments' is the tracing overhead. After the traced window come a
// short probe session that exercises every op class the
// workload itself does not, then a burst of /healthz pings that fixes the
// transport floor. Every per-layer number is timed from outside, around
// calls into each layer's public functions: client spans from the recorder,
// server counters from /metrics deltas, and in-process replays of the
// recorded ops in which each layer gets its own fresh, equally warmed table
// and cache.

// replayBudget bounds how much recorded work (by client latency) the
// in-process layer replays re-execute, so a traced run stays short on the
// largest snapshot.
const replayBudget = 3 * time.Second

// pings is the number of /healthz round trips that measure the transport
// floor.
const pings = 200

type traced struct {
	s         *segment
	win       window
	promA     promSnapshot // before the traced window
	promB     promSnapshot // after the traced window
	promProbe promSnapshot // after the probe session
	promPing  promSnapshot // after the pings
	freshA    float64
	freshB    float64
	// untracedOpsPerS is the throughput of the run's untraced segments, the
	// base of the tracing overhead.
	untracedOpsPerS float64
	warmRejections  float64
	warmSessions    float64
}

func runTraced(ctx context.Context, s *segment, w workload, table *dataset.Table, analysts int, d time.Duration, loadSeed int64, pool []poolItem) (*traced, error) {
	t := &traced{s: s}
	// The α-investing sentinel: the warm-up pass is the same fixed
	// sequence of sessions on every run with this seed.
	for _, e := range opsOf(s.rec.exchanges("warmup")) {
		if e.kind == "create" {
			t.warmSessions++
		}
		if e.kind == "steps" && e.ok() {
			var r api.StepResponse
			if json.Unmarshal(e.respBody, &r) == nil && r.Hypothesis != nil && r.Hypothesis.Rejected {
				t.warmRejections++
			}
		}
	}
	hc := s.rec.client()
	var err error
	if t.promA, err = scrapeProm(ctx, hc, s.c.base); err != nil {
		return nil, err
	}
	if t.freshA, err = arenaFresh(ctx, hc, s.c.base); err != nil {
		return nil, err
	}
	if t.win, err = drive(ctx, s, w, table, analysts, d, loadSeed, "traced"); err != nil {
		return nil, err
	}
	s.win = t.win
	if t.promB, err = scrapeProm(ctx, hc, s.c.base); err != nil {
		return nil, err
	}
	if t.freshB, err = arenaFresh(ctx, hc, s.c.base); err != nil {
		return nil, err
	}
	s.rec.setPhase("probe")
	probeSession(ctx, s.api, pool)
	s.rec.setPhase("idle")
	if t.promProbe, err = scrapeProm(ctx, hc, s.c.base); err != nil {
		return nil, err
	}
	s.rec.setPhase("ping")
	for i := 0; i < pings; i++ {
		if _, err := s.api.Health(ctx); err != nil {
			return nil, err
		}
	}
	s.rec.setPhase("idle")
	if t.promPing, err = scrapeProm(ctx, hc, s.c.base); err != nil {
		return nil, err
	}
	return t, nil
}

// probeSession runs one session that exercises the op classes the loadgen
// scripts leave out or use rarely: comparisons, a numeric-target chart,
// holdout validation and replay, and every read.
func probeSession(ctx context.Context, c *client.Client, pool []poolItem) {
	info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: datasetName})
	if err != nil {
		return
	}
	id := info.ID
	viz, items := 0, 0
	for _, it := range pool {
		if len(it.preds) < 2 {
			continue
		}
		_, _ = c.ApplyRawStep(ctx, id, addVizBody(it.target, it.preds[0]))
		_, _ = c.ApplyRawStep(ctx, id, addVizBody(it.target, it.preds[1]))
		cmp, _ := json.Marshal(map[string]any{"op": "compare_visualizations", "a": viz + 1, "b": viz + 2})
		_, _ = c.ApplyRawStep(ctx, id, cmp)
		_, _ = c.ApplyRawStep(ctx, id, addVizBody(census.ColAge, it.preds[0]))
		viz += 3
		items++
		_, _ = c.HoldoutValidate(ctx, id, api.HoldoutValidateRequest{Attribute: census.ColAge, Predicate: it.preds[0], Seed: int64(items)})
		if items == 2 {
			break
		}
	}
	_, _ = c.Gauge(ctx, id)
	_, _ = c.Log(ctx, id)
	_, _ = c.HoldoutReplay(ctx, id, api.HoldoutReplayRequest{Seed: 1})
	_, _ = c.Report(ctx, id)
	_ = c.DeleteSession(ctx, id)
}

// replayOps picks the ops the in-process layer replays re-execute: whole
// traced-window sessions in order of creation until replayBudget of recorded
// latency is covered, then the probe session, all in recorded start order.
func (t *traced) replayOps() []*exchange {
	order, by := sessionsOf(t.s.rec.exchanges("traced"))
	keep := make(map[int64]bool)
	var spent time.Duration
	for _, id := range order {
		if spent >= replayBudget {
			break
		}
		list := by[id]
		if list[0].kind != "create" {
			continue // a session that started before the window
		}
		keep[id] = true
		for _, e := range list {
			spent += e.latency()
		}
	}
	var out []*exchange
	for _, e := range t.s.rec.exchanges("traced", "probe") {
		if isOp(e) && e.ok() && (e.phase == "probe" || keep[e.session]) {
			out = append(out, e)
		}
	}
	return out
}

// --- fresh, equally warmed tables ---

// freshTable opens its own copy of the snapshot and configures it the way
// the server's dataset registry does (shared pool, word arena, selection
// cache), then applies the same warm-up pass the child received.
func freshTable(path string, pool []poolItem) (*dataset.Table, *dataset.SelectionCache, error) {
	table, err := dataset.OpenSnapshot(path)
	if err != nil {
		return nil, nil, err
	}
	table.SetPool(dataset.DefaultPool())
	table.SetArena(dataset.NewWordArena(table.NumRows()))
	cache := dataset.NewSelectionCache(table)
	for _, it := range pool {
		sess, err := core.NewSession(table, core.Options{Selections: cache})
		if err != nil {
			table.Close()
			return nil, nil, err
		}
		for i := range it.preds {
			filter := it.filter
			if i == 1 {
				filter = dataset.Not{Inner: it.filter}
			}
			_, _ = sess.Apply(core.AddVisualization{Target: it.target, Filter: filter})
		}
	}
	return table, cache, nil
}

// targetClass names the column type of a chart target: categorical, bool or
// numeric.
func targetClass(table *dataset.Table, target string) string {
	col, err := table.Column(target)
	if err != nil {
		return "unknown"
	}
	switch col.Type {
	case dataset.Categorical:
		return "categorical"
	case dataset.Bool:
		return "bool"
	}
	return "numeric"
}

// opClass names a recorded op for the per-layer tables: the step kind split
// by target type for charts, otherwise the exchange kind.
func opClass(table *dataset.Table, e *exchange) string {
	if e.class != classStep {
		return e.kind
	}
	st, err := stepOf(e)
	if err != nil {
		return "undecodable"
	}
	switch st := st.(type) {
	case core.AddVisualization:
		if st.Filter == nil {
			return "add_visualization.unfiltered"
		}
		return "add_visualization." + targetClass(table, st.Target)
	default:
		return st.Kind()
	}
}

// --- server layer: in-process ServeHTTP ---

type serverReplay struct {
	serve        map[int]time.Duration // ServeHTTP per op index
	stepSpan     map[int]time.Duration // the step span the server recorded
	kernelSpan   map[int]time.Duration // the kernel spans under it
	journalBytes int64
	journalSteps int
}

func replayServer(ops []*exchange, path string, pool []poolItem, journalDir string) (*serverReplay, error) {
	srv, err := server.New(server.Config{
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		JournalDir:    journalDir,
		TraceCapacity: len(ops),
		SlowOp:        time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	table, err := dataset.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	if err := srv.Registry().Register(datasetName, table); err != nil {
		return nil, err
	}
	h := srv.Handler()
	do := func(method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rr, req)
		return rr, time.Since(start)
	}
	createdID := func(rr *httptest.ResponseRecorder) int64 {
		var info api.SessionInfo
		_ = json.Unmarshal(rr.Body.Bytes(), &info)
		return info.ID
	}
	sessPath := func(id int64) string { return api.Prefix + "/sessions/" + strconv.FormatInt(id, 10) }

	// The same warm-up pass the child received, through the same handler.
	for _, it := range pool {
		rr, _ := do(http.MethodPost, api.Prefix+"/sessions", []byte(`{"dataset":"census"}`))
		id := createdID(rr)
		for _, pred := range it.preds {
			do(http.MethodPost, sessPath(id)+"/steps", addVizBody(it.target, pred))
		}
		do(http.MethodDelete, sessPath(id), nil)
	}

	r := &serverReplay{serve: map[int]time.Duration{}, stepSpan: map[int]time.Duration{}, kernelSpan: map[int]time.Duration{}}
	ids := make(map[int64]int64)
	for i, e := range ops {
		target := e.path
		if e.kind != "create" {
			target = strings.Replace(e.path, "/sessions/"+strconv.FormatInt(e.session, 10), "/sessions/"+strconv.FormatInt(ids[e.session], 10), 1)
		}
		if e.kind == "delete" && journalDir != "" {
			if fi, err := os.Stat(filepath.Join(journalDir, fmt.Sprintf("session-%d.jsonl", ids[e.session]))); err == nil {
				r.journalBytes += fi.Size()
			}
		}
		rr, dt := do(e.method, target, e.reqBody)
		if rr.Code != e.status {
			return nil, fmt.Errorf("in-process replay of %s %s answered %d, the child answered %d", e.method, e.path, rr.Code, e.status)
		}
		r.serve[i] = dt
		if e.kind == "create" {
			ids[e.session] = createdID(rr)
		}
		if e.class == classStep && journalDir != "" {
			r.journalSteps++
		}
	}

	// The server's own span trees, newest first: with a ring exactly as large
	// as the replay, they are the replayed requests in reverse.
	rr, _ := do(http.MethodGet, "/debug/trace", nil)
	var doc struct {
		Traces []obs.SpanJSON `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decoding in-process trace ring: %w", err)
	}
	if len(doc.Traces) != len(ops) {
		return nil, fmt.Errorf("in-process trace ring holds %d requests, the replay sent %d", len(doc.Traces), len(ops))
	}
	for j, root := range doc.Traces {
		if i := len(ops) - 1 - j; root.Name != ops[i].endpoint {
			return nil, fmt.Errorf("in-process trace %d is %q, the replay sent %q", j, root.Name, ops[i].endpoint)
		}
	}
	for j, root := range doc.Traces {
		i := len(ops) - 1 - j
		for _, child := range root.Children {
			if child.Kind == obs.KindStep {
				r.stepSpan[i] += spanDur(child)
				r.kernelSpan[i] += kernelTime(child)
			}
		}
	}
	return r, nil
}

func spanDur(s obs.SpanJSON) time.Duration {
	return time.Duration(s.DurationMs * float64(time.Millisecond))
}

// kernelTime sums the outermost kernel spans below s.
func kernelTime(s obs.SpanJSON) time.Duration {
	var d time.Duration
	for _, c := range s.Children {
		if c.Kind == obs.KindKernel {
			d += spanDur(c)
		} else {
			d += kernelTime(c)
		}
	}
	return d
}

// --- core layer: Session methods ---

type coreReplay struct {
	call   map[int]time.Duration // the timed core call per op index
	allocs map[int]float64       // heap allocations per step
	bytes  map[int]float64       // heap bytes per step
	// tests holds, per op index, the test a step fed to α-investing, for the
	// investing replay.
	tests map[int]investing.TestContext
	pval  map[int]float64
	sess  map[int]int64 // op index → recorded session, for per-session investors
}

func replayCore(ops []*exchange, path string, pool []poolItem) (*coreReplay, error) {
	table, cache, err := freshTable(path, pool)
	if err != nil {
		return nil, err
	}
	defer table.Close()
	r := &coreReplay{call: map[int]time.Duration{}, allocs: map[int]float64{}, bytes: map[int]float64{},
		tests: map[int]investing.TestContext{}, pval: map[int]float64{}, sess: map[int]int64{}}
	sessions := make(map[int64]*core.Session)
	var m0, m1 runtime.MemStats
	for i, e := range ops {
		sess := sessions[e.session]
		switch {
		case e.kind == "create":
			opts, err := api.SessionSpec{Dataset: datasetName}.Options()
			if err != nil {
				return nil, err
			}
			opts.Selections = cache
			if sessions[e.session], err = core.NewSession(table, opts); err != nil {
				return nil, err
			}
		case e.kind == "delete":
			delete(sessions, e.session)
		case sess == nil:
			return nil, fmt.Errorf("core replay: op %s on unknown session %d", e.kind, e.session)
		case e.class == classStep:
			st, err := stepOf(e)
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&m0)
			start := time.Now()
			res, err := sess.Apply(st)
			r.call[i] = time.Since(start)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("core replay: %w", err)
			}
			r.allocs[i] = float64(m1.Mallocs - m0.Mallocs)
			r.bytes[i] = float64(m1.TotalAlloc - m0.TotalAlloc)
			if h := res.Hypothesis; h != nil {
				r.tests[i] = investing.TestContext{SupportSize: h.SupportSize, PopulationSize: table.NumRows()}
				r.pval[i] = h.Test.PValue
				r.sess[i] = e.session
			}
		case e.kind == "gauge":
			start := time.Now()
			g := sess.Gauge()
			_ = g.Render()
			for _, h := range g.Hypotheses {
				_ = h.Entry()
			}
			r.call[i] = time.Since(start)
		case e.kind == "report":
			start := time.Now()
			_ = sess.Report(time.Now())
			r.call[i] = time.Since(start)
		case e.kind == "log":
			start := time.Now()
			_ = sess.Log()
			r.call[i] = time.Since(start)
		case e.kind == "validate":
			var req api.HoldoutValidateRequest
			if err := json.Unmarshal(e.reqBody, &req); err != nil {
				return nil, err
			}
			pred, err := predicateOf(req.Predicate)
			if err != nil {
				return nil, err
			}
			fraction, alpha, seed := holdoutDefaults(req.ExplorationFraction, req.Alpha, req.Seed, sess.Alpha())
			start := time.Now()
			v, err := core.NewHoldoutValidator(sess.Data(), fraction, alpha, rand.New(rand.NewSource(seed)))
			if err == nil {
				_, err = v.CompareMeans(req.Attribute, pred, stats.TwoSided)
			}
			r.call[i] = time.Since(start)
			if err != nil {
				return nil, err
			}
		case e.kind == "replay":
			var req api.HoldoutReplayRequest
			if err := json.Unmarshal(e.reqBody, &req); err != nil {
				return nil, err
			}
			opts, err := api.SessionSpec{Dataset: datasetName}.Options()
			if err != nil {
				return nil, err
			}
			fraction, alpha, seed := holdoutDefaults(req.ExplorationFraction, req.Alpha, req.Seed, sess.Alpha())
			start := time.Now()
			v, err := core.NewHoldoutValidator(sess.Data(), fraction, alpha, rand.New(rand.NewSource(seed)))
			if err == nil {
				_, err = v.ReplayLog(opts, core.StepsFromLog(sess.Log()))
			}
			r.call[i] = time.Since(start)
			if err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// --- dataset layer: Table, SelectionCache and View calls ---

// datasetSample is one timed dataset call of one op.
type datasetSample struct {
	op   int
	name string
	d    time.Duration
}

type datasetReplay struct {
	samples []datasetSample
	total   map[int]time.Duration // all dataset time per op
	// Inputs the stats replay re-tests.
	gof   map[int][2][]float64 // observed, expected
	indep map[int][][]int
	ttest map[int][][2][]float64 // per half: xs, ys
}

func (r *datasetReplay) add(op int, name string, d time.Duration) {
	r.samples = append(r.samples, datasetSample{op, name, d})
	r.total[op] += d
}

func replayDataset(ops []*exchange, path string, pool []poolItem) (*datasetReplay, error) {
	table, cache, err := freshTable(path, pool)
	if err != nil {
		return nil, err
	}
	defer table.Close()
	r := &datasetReplay{total: map[int]time.Duration{}, gof: map[int][2][]float64{}, indep: map[int][][]int{}, ttest: map[int][][2][]float64{}}
	type chart struct {
		target string
		filter dataset.Predicate
	}
	charts := make(map[int64][]chart)

	// view resolves a filter through the cache and names the outcome.
	view := func(i int, p dataset.Predicate) (dataset.View, error) {
		h0, p0, _ := cache.Stats()
		start := time.Now()
		v, err := cache.View(p)
		d := time.Since(start)
		h1, p1, _ := cache.Stats()
		switch {
		case p == nil:
			r.add(i, "view_population", d)
		case h1 > h0:
			r.add(i, "view_hit", d)
		case p1 > p0:
			r.add(i, "view_partial", d)
		default:
			r.add(i, "where_cold", d)
		}
		return v, err
	}
	// counts is core's referenceCounts, timed call by call.
	counts := func(i int, v dataset.View, target, which string) ([]int, error) {
		class := targetClass(table, target)
		if class == "numeric" {
			start := time.Now()
			c, err := v.BinCounts(target, 10)
			r.add(i, "bin_counts", time.Since(start))
			return c, err
		}
		start := time.Now()
		cats, err := table.Categories(target)
		r.add(i, "categories."+class, time.Since(start))
		if err != nil {
			return nil, err
		}
		start = time.Now()
		c, err := v.CountsFor(target, cats)
		r.add(i, "counts_for."+which, time.Since(start))
		return c, err
	}

	for i, e := range ops {
		switch e.kind {
		case "create":
			charts[e.session] = nil
		case "steps", "visualizations", "compare":
			st, err := stepOf(e)
			if err != nil {
				return nil, err
			}
			switch st := st.(type) {
			case core.AddVisualization:
				charts[e.session] = append(charts[e.session], chart{st.Target, st.Filter})
				if st.Filter == nil {
					continue
				}
				sub, err := view(i, st.Filter)
				if err != nil {
					return nil, err
				}
				observed, err := counts(i, sub, st.Target, "filter")
				if err != nil {
					return nil, err
				}
				pop, err := view(i, nil)
				if err != nil {
					return nil, err
				}
				popCounts, err := counts(i, pop, st.Target, "population")
				if err != nil {
					return nil, err
				}
				r.gof[i] = [2][]float64{intsToFloats(observed), intsToFloats(popCounts)}
			case core.CompareVisualizations:
				list := charts[e.session]
				if st.A < 1 || st.B < 1 || st.A > len(list) || st.B > len(list) {
					return nil, fmt.Errorf("dataset replay: comparison of unknown charts %d, %d", st.A, st.B)
				}
				a, b := list[st.A-1], list[st.B-1]
				va, err := view(i, a.filter)
				if err != nil {
					return nil, err
				}
				vb, err := view(i, b.filter)
				if err != nil {
					return nil, err
				}
				ca, err := counts(i, va, a.target, "filter")
				if err != nil {
					return nil, err
				}
				cb, err := counts(i, vb, a.target, "filter")
				if err != nil {
					return nil, err
				}
				r.indep[i] = [][]int{ca, cb}
			}
		case "validate":
			var req api.HoldoutValidateRequest
			if err := json.Unmarshal(e.reqBody, &req); err != nil {
				return nil, err
			}
			pred, err := predicateOf(req.Predicate)
			if err != nil {
				return nil, err
			}
			fraction, _, seed := holdoutDefaults(req.ExplorationFraction, req.Alpha, req.Seed, investing.DefaultAlpha)
			start := time.Now()
			explore, validate, err := table.Split(rand.New(rand.NewSource(seed)), fraction)
			r.add(i, "split", time.Since(start))
			if err != nil {
				return nil, err
			}
			for _, half := range []*dataset.Table{explore, validate} {
				start := time.Now()
				sel, err := half.Where(pred)
				r.add(i, "where_cold", time.Since(start))
				if err != nil {
					return nil, err
				}
				start = time.Now()
				in, err := dataset.NewView(half, sel)
				if err != nil {
					return nil, err
				}
				out, err := dataset.NewView(half, sel.Not())
				if err != nil {
					return nil, err
				}
				xs, err := in.Floats(req.Attribute)
				if err != nil {
					return nil, err
				}
				ys, err := out.Floats(req.Attribute)
				r.add(i, "floats", time.Since(start))
				if err != nil {
					return nil, err
				}
				r.ttest[i] = append(r.ttest[i], [2][]float64{xs, ys})
			}
		}
	}
	return r, nil
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// --- stats and investing layers ---

type statsReplay struct {
	chisq map[int]time.Duration
	ttest map[int]time.Duration
	total map[int]time.Duration // stats time per op, the n_H1 annotation included
}

func replayStats(d *datasetReplay, alpha float64) (*statsReplay, error) {
	r := &statsReplay{chisq: map[int]time.Duration{}, ttest: map[int]time.Duration{}, total: map[int]time.Duration{}}
	annotate := func(i int, test stats.TestResult, support int) {
		start := time.Now()
		if effect := math.Abs(test.EffectSize); effect > 0 && support > 0 {
			_, _ = stats.RequiredMultiplier(support, effect, alpha, 0.8, stats.TwoSided)
		}
		r.total[i] += time.Since(start)
	}
	for i, in := range d.gof {
		observed := make([]int, len(in[0]))
		support := 0
		for j, v := range in[0] {
			observed[j] = int(v)
			support += int(v)
		}
		start := time.Now()
		test, err := stats.ChiSquaredGoodnessOfFit(observed, in[1])
		r.chisq[i] = time.Since(start)
		r.total[i] += r.chisq[i]
		if err != nil {
			return nil, err
		}
		annotate(i, test, support)
	}
	for i, table := range d.indep {
		start := time.Now()
		test, err := stats.ChiSquaredIndependence(table)
		r.chisq[i] = time.Since(start)
		r.total[i] += r.chisq[i]
		if err != nil {
			return nil, err
		}
		support := 0
		for _, row := range table {
			for _, v := range row {
				support += v
			}
		}
		annotate(i, test, support)
	}
	for i, halves := range d.ttest {
		for _, h := range halves {
			start := time.Now()
			_, err := stats.WelchTTest(h[0], h[1], stats.TwoSided)
			r.ttest[i] += time.Since(start)
			if err != nil {
				return nil, err
			}
		}
		r.total[i] += r.ttest[i]
	}
	return r, nil
}

// replayInvesting feeds each session's recorded p-values, in order, to a
// fresh default investor and times every decision.
func replayInvesting(ops []*exchange, c *coreReplay) (map[int]time.Duration, error) {
	out := make(map[int]time.Duration)
	investors := make(map[int64]*investing.Investor)
	for i := range ops {
		tc, ok := c.tests[i]
		if !ok {
			continue
		}
		sid := c.sess[i]
		inv := investors[sid]
		if inv == nil {
			cfg, err := investing.NewConfig(investing.DefaultAlpha)
			if err != nil {
				return nil, err
			}
			policy, err := investing.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
			if err != nil {
				return nil, err
			}
			if inv, err = investing.NewInvestor(cfg, policy); err != nil {
				return nil, err
			}
			investors[sid] = inv
		}
		start := time.Now()
		_, err := inv.Test(c.pval[i], tc)
		out[i] = time.Since(start)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- assembling the per-layer metrics ---

// meanUs is the mean of durations in microseconds; NaN when empty.
func meanUs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return mean(xs)
}

// promMean is the mean server-side handler time of a class between two
// scrapes, in microseconds, and the request count behind it.
func promMean(a, b promSnapshot, endpoints []string) (float64, float64) {
	var sum, n float64
	for _, ep := range endpoints {
		sum += b.get(endpointSeries("aware_http_request_duration_seconds_sum", ep)) - a.get(endpointSeries("aware_http_request_duration_seconds_sum", ep))
		n += b.get(endpointSeries("aware_http_request_duration_seconds_count", ep)) - a.get(endpointSeries("aware_http_request_duration_seconds_count", ep))
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / n * 1e6, n
}

func (t *traced) layerMetrics(snapPath string, snapBytes int64, table *dataset.Table, pool []poolItem, w workload) (map[string]metric, error) {
	m := make(map[string]metric)
	set := func(name, unit string, v float64) { m[name] = metric{finite(v), unit} }
	winOps := opsOf(t.s.rec.exchanges("traced"))
	probeOps := opsOf(t.s.rec.exchanges("probe"))

	// client
	var lags []float64
	last := make(map[int64]time.Time)
	for _, e := range winOps {
		if prev, ok := last[e.session]; ok && e.session != 0 {
			lags = append(lags, ms(e.start.Sub(prev)))
		}
		if e.session != 0 {
			last[e.session] = e.end
		}
	}
	set("client.sched_lag_p99_ms", "ms", quantile(sortedCopy(lags), 0.99))
	handler := map[string]float64{}
	clientMean := map[string]float64{}
	for _, class := range []string{classStep, classRead, classValidate} {
		h, n := promMean(t.promA, t.promB, classEndpoints[class])
		src := winOps
		if n == 0 {
			h, _ = promMean(t.promB, t.promProbe, classEndpoints[class])
			src = probeOps
		}
		handler[class] = h
		clientMean[class] = mean(latencies(src, class)) * 1000
		set("server.handler_us."+class, "us", h)
	}
	set("client.transport_us.step", "us", clientMean[classStep]-handler[classStep])
	set("client.transport_us.read", "us", clientMean[classRead]-handler[classRead])
	captured := t.promB.get("aware_trace_captured_total") - t.promA.get("aware_trace_captured_total")
	dropped := t.promB.get("aware_trace_dropped_total") - t.promA.get("aware_trace_dropped_total")
	set("server.trace_drop_ratio", "ratio", dropped/captured)

	// dataset counters from /metrics
	cache := func(name string) float64 {
		series := name + `{dataset="` + datasetName + `"}`
		return t.promB.get(series) - t.promA.get(series)
	}
	hits, partial, misses := cache("aware_selection_cache_hits_total"), cache("aware_selection_cache_partial_hits_total"), cache("aware_selection_cache_misses_total")
	lookups := hits + partial + misses
	set("dataset.cache_hit_ratio", "ratio", hits/lookups)
	set("dataset.cache_partial_ratio", "ratio", partial/lookups)
	set("dataset.cache_entries", "count", t.promB.get(`aware_selection_cache_entries{dataset="`+datasetName+`"}`))
	delta := func(name string) float64 { return t.promB.get(name) - t.promA.get(name) }
	nOps := float64(len(winOps))
	set("dataset.pool_queue_wait_us_per_op", "us", delta("aware_pool_queue_wait_seconds_total")*1e6/nOps)
	cut := delta("aware_pool_sequential_cutoff_total")
	set("dataset.pool_cutoff_ratio", "ratio", cut/(cut+delta("aware_pool_morsels_total")))
	steps := float64(len(latencies(winOps, classStep)))
	set("dataset.arena_fresh_per_step", "count", (t.freshB-t.freshA)/steps)

	// In-process replays of the same recorded ops.
	ops := t.replayOps()
	logf("replaying %d recorded ops layer by layer", len(ops))
	journalDir := ""
	if w.journal {
		journalDir = filepath.Join(filepath.Dir(snapPath), "..", "journal-replay")
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(journalDir)
	}
	sr, err := replayServer(ops, snapPath, pool, journalDir)
	if err != nil {
		return nil, err
	}
	cr, err := replayCore(ops, snapPath, pool)
	if err != nil {
		return nil, err
	}
	dr, err := replayDataset(ops, snapPath, pool)
	if err != nil {
		return nil, err
	}
	str, err := replayStats(dr, investing.DefaultAlpha)
	if err != nil {
		return nil, err
	}
	ir, err := replayInvesting(ops, cr)
	if err != nil {
		return nil, err
	}

	// Group op indices by class, preferring traced-window ops over probe ops.
	classes := make(map[string][]int)
	for i, e := range ops {
		classes[opClass(table, e)] = append(classes[opClass(table, e)], i)
	}
	pick := func(idx []int) []int {
		var win []int
		for _, i := range idx {
			if ops[i].phase == "traced" {
				win = append(win, i)
			}
		}
		if len(win) > 0 {
			return win
		}
		return idx
	}
	collect := func(src map[int]time.Duration, idx []int) []time.Duration {
		var out []time.Duration
		for _, i := range idx {
			if d, ok := src[i]; ok {
				out = append(out, d)
			}
		}
		return out
	}
	stepIdx := func() []int {
		var out []int
		for i, e := range ops {
			if e.class == classStep {
				out = append(out, i)
			}
		}
		return pick(out)
	}()

	// server
	var selfs []time.Duration
	for _, i := range stepIdx {
		if span, ok := sr.stepSpan[i]; ok {
			selfs = append(selfs, sr.serve[i]-span)
		}
	}
	set("server.self_us.step", "us", meanUs(selfs))
	if sr.journalSteps > 0 {
		set("server.journal_bytes_per_step", "B", float64(sr.journalBytes)/float64(sr.journalSteps))
	} else {
		set("server.journal_bytes_per_step", "B", 0)
	}

	// api
	var decode []time.Duration
	var encode []time.Duration
	for _, i := range stepIdx {
		if ops[i].kind != "steps" {
			continue
		}
		start := time.Now()
		_, err := core.UnmarshalStep(ops[i].reqBody)
		decode = append(decode, time.Since(start))
		if err != nil {
			return nil, err
		}
	}
	for _, kind := range []string{"gauge", "report"} {
		for _, i := range pick(classes[kind]) {
			var v any = &api.Gauge{}
			if kind == "report" {
				v = &core.Report{}
			}
			if err := json.Unmarshal(ops[i].respBody, v); err != nil {
				return nil, err
			}
			start := time.Now()
			_, err := json.Marshal(v)
			encode = append(encode, time.Since(start))
			if err != nil {
				return nil, err
			}
		}
	}
	set("api.decode_step_us", "us", meanUs(decode))
	set("api.encode_read_us", "us", meanUs(encode))

	// core
	for _, tc := range []string{"categorical", "bool", "numeric"} {
		set("core.apply_us.add_visualization."+tc, "us", meanUs(collect(cr.call, pick(classes["add_visualization."+tc]))))
	}
	set("core.apply_us.compare_visualizations", "us", meanUs(collect(cr.call, pick(classes["compare_visualizations"]))))
	var addViz []int
	for _, tc := range []string{"categorical", "bool", "numeric"} {
		addViz = append(addViz, classes["add_visualization."+tc]...)
	}
	var coreSelf []time.Duration
	for _, i := range pick(addViz) {
		coreSelf = append(coreSelf, cr.call[i]-dr.total[i]-str.total[i]-ir[i])
	}
	set("core.self_us.add_visualization", "us", meanUs(coreSelf))
	set("core.gauge_us", "us", meanUs(collect(cr.call, pick(classes["gauge"]))))
	set("core.report_us", "us", meanUs(collect(cr.call, pick(classes["report"]))))
	set("core.holdout_validate_us", "us", meanUs(collect(cr.call, pick(classes["validate"]))))
	set("core.holdout_replay_us", "us", meanUs(collect(cr.call, pick(classes["replay"]))))
	var allocs, heap []float64
	for _, i := range stepIdx {
		if a, ok := cr.allocs[i]; ok {
			allocs = append(allocs, a)
			heap = append(heap, cr.bytes[i])
		}
	}
	set("core.allocs_per_step", "count", mean(allocs))
	set("core.bytes_per_step", "B", mean(heap))

	// investing
	var tests []time.Duration
	for _, d := range ir {
		tests = append(tests, d)
	}
	set("investing.test_us", "us", meanUs(tests))
	set("investing.rejections_per_session", "count", t.warmRejections/t.warmSessions)

	// stats
	var chisq, ttest []time.Duration
	for _, i := range pick(append(append([]int{}, addViz...), classes["compare_visualizations"]...)) {
		if d, ok := str.chisq[i]; ok {
			chisq = append(chisq, d)
		}
	}
	for _, i := range pick(classes["validate"]) {
		if d, ok := str.ttest[i]; ok {
			ttest = append(ttest, d)
		}
	}
	set("stats.chisq_us", "us", meanUs(chisq))
	set("stats.ttest_us", "us", meanUs(ttest))

	// dataset calls
	byName := make(map[string][]datasetSample)
	for _, s := range dr.samples {
		byName[s.name] = append(byName[s.name], s)
	}
	dsMean := func(name string) float64 {
		var win, all []time.Duration
		for _, s := range byName[name] {
			all = append(all, s.d)
			if ops[s.op].phase == "traced" {
				win = append(win, s.d)
			}
		}
		if len(win) > 0 {
			return meanUs(win)
		}
		return meanUs(all)
	}
	set("dataset.categories_us.bool", "us", dsMean("categories.bool"))
	set("dataset.categories_us.categorical", "us", dsMean("categories.categorical"))
	set("dataset.where_cold_us", "us", dsMean("where_cold"))
	set("dataset.split_us", "us", dsMean("split"))
	set("dataset.view_hit_us", "us", dsMean("view_hit"))
	set("dataset.counts_for_us.filter", "us", dsMean("counts_for.filter"))
	set("dataset.counts_for_us.population", "us", dsMean("counts_for.population"))
	set("dataset.bin_counts_us", "us", dsMean("bin_counts"))

	// colstore
	var opens []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		tb, err := dataset.OpenSnapshot(snapPath)
		opens = append(opens, ms(time.Since(start)))
		if err != nil {
			return nil, err
		}
		tb.Close()
	}
	set("colstore.open_ms", "ms", median(opens))
	set("colstore.snapshot_mb", "MB", float64(snapBytes)/(1<<20))

	// the benchmark itself
	tracedOps := nOps / t.win.end.Sub(t.win.start).Seconds()
	set("bench.trace_overhead_pct", "%", 100*(t.untracedOpsPerS-tracedOps)/t.untracedOpsPerS)

	t.printLayerSums(ops, table, clientMean, handler, sr, cr, dr, str, ir, classes, pick)
	printJSONLine("per_layer", m)
	return m, nil
}

// layerTolerance is how far a layer sum may miss its total before the check
// flags it: 10% of the total or 50 µs, whichever is larger.
func layerTolerance(total float64) float64 { return math.Max(0.10*math.Abs(total), 50) }

// printLayerSums prints, per op class, three decompositions whose terms come
// from different measurements, so their remainders are real:
//
//	client:  client mean = transport floor (/healthz pings) + server handler (/metrics)
//	server:  in-process ServeHTTP = server self (ServeHTTP − the server's step span) + Apply (core replay)
//	core:    Apply = core self (Apply − dataset, stats, investing calls) + the server's kernel spans + stats + investing
//
// The core remainder is therefore dataset time that the program's own kernel
// spans do not cover.
func (t *traced) printLayerSums(ops []*exchange, table *dataset.Table, clientMean, handler map[string]float64,
	sr *serverReplay, cr *coreReplay, dr *datasetReplay, str *statsReplay, ir map[int]time.Duration,
	classes map[string][]int, pick func([]int) []int) {
	var pingLat []float64
	for _, e := range t.s.rec.exchanges("ping") {
		pingLat = append(pingLat, us(e.latency()))
	}
	pingClient := mean(pingLat)
	pingHandler, _ := promMean(t.promProbe, t.promPing, []string{"GET /healthz"})
	floor := pingClient - pingHandler
	line := func(level, class string, total float64, terms map[string]float64) {
		sum := 0.0
		for _, v := range terms {
			sum += v
		}
		rem := total - sum
		verdict := "ok"
		if math.Abs(rem) > layerTolerance(total) {
			verdict = "over"
		}
		var parts []string
		for _, k := range sortedKeys(terms) {
			parts = append(parts, fmt.Sprintf("%s=%.1f", k, terms[k]))
		}
		fmt.Printf("layer-sum %-7s %-36s total=%.1fus %s remainder=%.1fus tolerance=%.1fus %s\n",
			level, class, total, strings.Join(parts, " "), rem, layerTolerance(total), verdict)
	}
	for _, class := range []string{classStep, classRead, classValidate} {
		line("client", class, clientMean[class], map[string]float64{"transport_floor": floor, "handler": handler[class]})
	}
	for _, name := range sortedKeys(classes) {
		idx := pick(classes[name])
		var serve, self, apply []time.Duration
		for _, i := range idx {
			span, ok := sr.stepSpan[i]
			if ops[i].class != classStep || !ok {
				continue
			}
			serve = append(serve, sr.serve[i])
			self = append(self, sr.serve[i]-span)
			apply = append(apply, cr.call[i])
		}
		if len(serve) > 0 {
			line("server", name, meanUs(serve), map[string]float64{"server_self": meanUs(self), "apply": meanUs(apply)})
		}
		var applyC, selfC, kernel, st, inv []time.Duration
		for _, i := range idx {
			k, ok := sr.kernelSpan[i]
			if ops[i].class != classStep || !ok {
				continue
			}
			applyC = append(applyC, cr.call[i])
			selfC = append(selfC, cr.call[i]-dr.total[i]-str.total[i]-ir[i])
			kernel = append(kernel, k)
			st = append(st, str.total[i])
			inv = append(inv, ir[i])
		}
		if len(applyC) > 0 {
			line("core", name, meanUs(applyC), map[string]float64{"core_self": meanUs(selfC), "kernel_spans": meanUs(kernel), "stats": meanUs(st), "investing": meanUs(inv)})
		}
	}
}
