package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"aware/internal/api"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/stats"
)

// checkResult is the outcome of the answer check.
type checkResult struct {
	sessions   int      // sessions replayed in-process
	checked    int      // exchanges compared against the replay
	mismatches int      // exchanges whose answer differs from the replay
	samples    []string // the first few mismatch descriptions
}

func (r *checkResult) fail(e *exchange, format string, args ...any) {
	r.mismatches++
	if len(r.samples) < 5 {
		r.samples = append(r.samples, fmt.Sprintf("session %d %s %s: %s", e.session, e.method, e.path, fmt.Sprintf(format, args...)))
	}
}

// sessionsOf groups the op exchanges by session, each in start order, and
// returns the session IDs in order of their first exchange.
func sessionsOf(exs []*exchange) ([]int64, map[int64][]*exchange) {
	by := make(map[int64][]*exchange)
	var order []int64
	for _, e := range exs {
		if !isOp(e) || e.session == 0 {
			continue
		}
		if _, seen := by[e.session]; !seen {
			order = append(order, e.session)
		}
		by[e.session] = append(by[e.session], e)
	}
	for _, id := range order {
		list := by[id]
		sort.SliceStable(list, func(i, j int) bool { return list[i].start.Before(list[j].start) })
	}
	return order, by
}

// stepOf decodes the step a successful state-changing exchange applied.
func stepOf(e *exchange) (core.Step, error) {
	switch e.kind {
	case "steps":
		return core.UnmarshalStep(e.reqBody)
	case "visualizations":
		var req api.CreateVisualizationRequest
		if err := json.Unmarshal(e.reqBody, &req); err != nil {
			return nil, err
		}
		pred, err := predicateOf(req.Predicate)
		if err != nil {
			return nil, err
		}
		return core.AddVisualization{Target: req.Target, Filter: pred}, nil
	case "compare":
		var req api.CompareRequest
		if err := json.Unmarshal(e.reqBody, &req); err != nil {
			return nil, err
		}
		if req.MeansOf != "" || req.DistributionsOf != "" {
			return nil, fmt.Errorf("compare overrides are not generated by the workloads")
		}
		return core.CompareVisualizations{A: req.A, B: req.B}, nil
	}
	return nil, fmt.Errorf("exchange %s is not a step", e.kind)
}

func predicateOf(raw json.RawMessage) (dataset.Predicate, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	return dataset.UnmarshalPredicate(raw)
}

// checkAnswers replays every recorded session in-process with core.Replay
// against the same snapshot and compares every p-value, decision, wealth and
// holdout verdict the server returned, bit for bit. Sessions are independent,
// so one worker per CPU replays them.
func checkAnswers(table *dataset.Table, exs []*exchange) (checkResult, error) {
	cache := dataset.NewSelectionCache(table)
	order, by := sessionsOf(exs)
	results := make([]checkResult, len(order))
	errs := make([]error, len(order))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = checkSession(&results[i], table, cache, by[order[i]])
			}
		}()
	}
	for i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	var res checkResult
	for i, r := range results {
		if errs[i] != nil {
			return res, errs[i]
		}
		res.sessions += r.sessions
		res.checked += r.checked
		res.mismatches += r.mismatches
		for _, s := range r.samples {
			if len(res.samples) < 5 {
				res.samples = append(res.samples, s)
			}
		}
	}
	return res, nil
}

// checkSession replays one session and compares each of its answers.
func checkSession(res *checkResult, table *dataset.Table, cache *dataset.SelectionCache, list []*exchange) error {
	var steps []core.Step
	var stepExs []*exchange
	for _, e := range list {
		if e.class != classStep || !e.ok() {
			continue
		}
		st, err := stepOf(e)
		if err != nil {
			res.fail(e, "undecodable step: %v", err)
			return nil
		}
		steps = append(steps, st)
		stepExs = append(stepExs, e)
	}
	opts, err := api.SessionSpec{Dataset: datasetName}.Options()
	if err != nil {
		return err
	}
	opts.Selections = cache
	sess, err := core.Replay(table, opts, steps)
	if err != nil {
		for _, e := range stepExs {
			res.fail(e, "in-process replay failed: %v", err)
		}
		return nil
	}
	res.sessions++
	journal := sess.Log()
	hyps := sess.Hypotheses()
	// wealth[k] is the α-wealth after the first k steps.
	wealth := make([]float64, len(steps)+1)
	wealth[0] = sess.Gauge().InitialWealth
	for i, entry := range journal {
		wealth[i+1] = wealth[i]
		if entry.HypothesisID != 0 {
			wealth[i+1] = hyps[entry.HypothesisID-1].WealthAfter
		}
	}
	k := 0 // steps applied before the current exchange
	for _, e := range list {
		if !e.ok() || e.class == classSession {
			continue
		}
		res.checked++
		switch e.kind {
		case "steps", "visualizations", "compare":
			checkStep(res, e, journal[k], hyps, wealth[k+1])
			k++
		case "gauge":
			var g api.Gauge
			if err := json.Unmarshal(e.respBody, &g); err != nil {
				res.fail(e, "undecodable gauge: %v", err)
				continue
			}
			checkEntries(res, e, g.RemainingWealth, wealth[k], g.Hypotheses, hyps)
		case "report":
			var r core.Report
			if err := json.Unmarshal(e.respBody, &r); err != nil {
				res.fail(e, "undecodable report: %v", err)
				continue
			}
			checkEntries(res, e, r.RemainingWealth, wealth[k], r.Hypotheses, hyps)
		case "log":
			checkLog(res, e, steps[:k])
		case "validate":
			if err := checkValidate(res, e, table, sess.Alpha()); err != nil {
				return err
			}
		case "replay":
			if err := checkReplay(res, e, table, sess.Alpha(), steps[:k]); err != nil {
				return err
			}
		default:
			res.checked--
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkStep(res *checkResult, e *exchange, want core.AppliedStep, hyps []*core.Hypothesis, wantWealth float64) {
	var vizID int
	var hyp *core.ReportEntry
	var wealth float64
	switch e.kind {
	case "steps":
		var r api.StepResponse
		if err := json.Unmarshal(e.respBody, &r); err != nil {
			res.fail(e, "undecodable response: %v", err)
			return
		}
		if r.Visualization != nil {
			vizID = r.Visualization.ID
		}
		hyp, wealth = r.Hypothesis, r.RemainingWealth
	case "visualizations":
		var r api.CreateVisualizationResponse
		if err := json.Unmarshal(e.respBody, &r); err != nil {
			res.fail(e, "undecodable response: %v", err)
			return
		}
		vizID, hyp, wealth = r.Visualization.ID, r.Hypothesis, r.RemainingWealth
	case "compare":
		var r api.HypothesisResponse
		if err := json.Unmarshal(e.respBody, &r); err != nil {
			res.fail(e, "undecodable response: %v", err)
			return
		}
		hyp, wealth = &r.Hypothesis, r.RemainingWealth
	}
	if vizID != want.VisualizationID {
		res.fail(e, "visualization %d, replay %d", vizID, want.VisualizationID)
		return
	}
	gotHyp := 0
	if hyp != nil {
		gotHyp = hyp.ID
	}
	if gotHyp != want.HypothesisID {
		res.fail(e, "hypothesis %d, replay %d", gotHyp, want.HypothesisID)
		return
	}
	if hyp != nil {
		if msg := entryDiff(*hyp, hyps[hyp.ID-1]); msg != "" {
			res.fail(e, "%s", msg)
			return
		}
	}
	if !sameBits(wealth, wantWealth) {
		res.fail(e, "remaining wealth %v, replay %v", wealth, wantWealth)
	}
}

// entryDiff compares the immutable outcome of one hypothesis: its test and
// the α-investing decision.
func entryDiff(got core.ReportEntry, want *core.Hypothesis) string {
	switch {
	case !sameBits(got.PValue, want.Test.PValue):
		return fmt.Sprintf("hypothesis %d p-value %v, replay %v", got.ID, got.PValue, want.Test.PValue)
	case got.Rejected != want.Rejected:
		return fmt.Sprintf("hypothesis %d rejected=%v, replay %v", got.ID, got.Rejected, want.Rejected)
	case !sameBits(got.AlphaInvested, want.AlphaInvested):
		return fmt.Sprintf("hypothesis %d alpha invested %v, replay %v", got.ID, got.AlphaInvested, want.AlphaInvested)
	case got.SupportSize != want.SupportSize:
		return fmt.Sprintf("hypothesis %d support %d, replay %d", got.ID, got.SupportSize, want.SupportSize)
	}
	return ""
}

func checkEntries(res *checkResult, e *exchange, wealth, wantWealth float64, entries []core.ReportEntry, hyps []*core.Hypothesis) {
	if !sameBits(wealth, wantWealth) {
		res.fail(e, "remaining wealth %v, replay %v", wealth, wantWealth)
		return
	}
	for _, entry := range entries {
		if entry.ID < 1 || entry.ID > len(hyps) {
			res.fail(e, "unknown hypothesis %d", entry.ID)
			return
		}
		if msg := entryDiff(entry, hyps[entry.ID-1]); msg != "" {
			res.fail(e, "%s", msg)
			return
		}
	}
}

func checkLog(res *checkResult, e *exchange, steps []core.Step) {
	var r api.LogResponse
	if err := json.Unmarshal(e.respBody, &r); err != nil {
		res.fail(e, "undecodable log: %v", err)
		return
	}
	if r.Count != len(steps) || len(r.Steps) != len(steps) {
		res.fail(e, "log holds %d steps, replay %d", r.Count, len(steps))
		return
	}
	for i, applied := range r.Steps {
		got, err1 := core.MarshalStep(applied.Step)
		want, err2 := core.MarshalStep(steps[i])
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			res.fail(e, "log step %d is %s, sent %s", i+1, got, want)
			return
		}
	}
}

func holdoutDefaults(fraction, alpha float64, seed int64, sessAlpha float64) (float64, float64, int64) {
	if fraction == 0 {
		fraction = 0.5
	}
	if alpha == 0 {
		alpha = sessAlpha
	}
	if seed == 0 {
		seed = 1
	}
	return fraction, alpha, seed
}

func checkValidate(res *checkResult, e *exchange, table *dataset.Table, sessAlpha float64) error {
	var req api.HoldoutValidateRequest
	var got api.HoldoutValidateResponse
	if err := json.Unmarshal(e.reqBody, &req); err != nil {
		res.fail(e, "undecodable request: %v", err)
		return nil
	}
	if err := json.Unmarshal(e.respBody, &got); err != nil {
		res.fail(e, "undecodable response: %v", err)
		return nil
	}
	pred, err := predicateOf(req.Predicate)
	if err != nil {
		res.fail(e, "undecodable predicate: %v", err)
		return nil
	}
	if req.Alternative != "" && req.Alternative != "two-sided" {
		return fmt.Errorf("holdout alternative %q is not generated by the workloads", req.Alternative)
	}
	fraction, alpha, seed := holdoutDefaults(req.ExplorationFraction, req.Alpha, req.Seed, sessAlpha)
	v, err := core.NewHoldoutValidator(table, fraction, alpha, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	want, err := v.CompareMeans(req.Attribute, pred, stats.TwoSided)
	if err != nil {
		res.fail(e, "in-process validation failed: %v", err)
		return nil
	}
	switch {
	case !sameBits(got.Exploration.PValue, want.Exploration.PValue):
		res.fail(e, "exploration p-value %v, replay %v", got.Exploration.PValue, want.Exploration.PValue)
	case !sameBits(got.Validation.PValue, want.Validation.PValue):
		res.fail(e, "validation p-value %v, replay %v", got.Validation.PValue, want.Validation.PValue)
	case got.Confirmed != want.Confirmed:
		res.fail(e, "confirmed=%v, replay %v", got.Confirmed, want.Confirmed)
	}
	return nil
}

func checkReplay(res *checkResult, e *exchange, table *dataset.Table, sessAlpha float64, steps []core.Step) error {
	var req api.HoldoutReplayRequest
	var got api.HoldoutReplayResponse
	if err := json.Unmarshal(e.reqBody, &req); err != nil {
		res.fail(e, "undecodable request: %v", err)
		return nil
	}
	if err := json.Unmarshal(e.respBody, &got); err != nil {
		res.fail(e, "undecodable response: %v", err)
		return nil
	}
	fraction, alpha, seed := holdoutDefaults(req.ExplorationFraction, req.Alpha, req.Seed, sessAlpha)
	v, err := core.NewHoldoutValidator(table, fraction, alpha, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	opts, err := api.SessionSpec{Dataset: datasetName}.Options()
	if err != nil {
		return err
	}
	want, err := v.ReplayLog(opts, steps)
	if err != nil {
		res.fail(e, "in-process holdout replay failed: %v", err)
		return nil
	}
	if got.Confirmed != want.Confirmed || got.ActiveTotal != want.ActiveTotal || len(got.Hypotheses) != len(want.Hypotheses) {
		res.fail(e, "confirmed %d/%d over %d hypotheses, replay %d/%d over %d",
			got.Confirmed, got.ActiveTotal, len(got.Hypotheses), want.Confirmed, want.ActiveTotal, len(want.Hypotheses))
		return nil
	}
	for i, h := range got.Hypotheses {
		w := want.Hypotheses[i]
		if !sameBits(h.Exploration.PValue, w.Exploration.PValue) || !sameBits(h.Validation.PValue, w.Validation.PValue) || h.Confirmed != w.Confirmed {
			res.fail(e, "hypothesis %d verdict differs from the replay", h.HypothesisID)
			return nil
		}
	}
	return nil
}
