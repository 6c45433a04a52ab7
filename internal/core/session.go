package core

import (
	"fmt"
	"math"

	"aware/internal/dataset"
	"aware/internal/investing"
	"aware/internal/obs"
	"aware/internal/plan"
	"aware/internal/stats"
)

// Options configures a Session.
type Options struct {
	// Alpha is the mFDR control level; 0 means the paper default 0.05.
	Alpha float64
	// Policy is the α-investing rule used to assign per-test levels. Nil means
	// the paper's ε-hybrid default (ε = 0.5, γ = δ = 10, unlimited window).
	Policy investing.Policy
	// TargetPower is the power used by the n_H1 "how much more data"
	// annotation; 0 means 0.8.
	TargetPower float64
	// Selections is the filter-bitmap cache the session resolves predicates
	// through. Nil means a fresh private cache over the session's table; a
	// service that runs many sessions over one immutable dataset passes the
	// dataset's shared cache so all of them reuse each other's compiled
	// filters. When set, it must be a cache over the session's own table.
	Selections *dataset.SelectionCache
	// Pool, when non-nil, pins the execution pool the session's table runs its
	// morsel-parallel kernels on (dataset.Table.SetPool applies table-wide, so
	// sessions sharing one table should agree on the pool — a service
	// configures it once at dataset registration instead). The pool is an
	// execution hint only: results are bit-identical on any pool, and
	// dataset.NewPool(1) forces fully sequential execution for deterministic
	// debugging. Nil leaves the table's current pool untouched.
	Pool *dataset.Pool
	// Arena, when non-nil, pins the Selection word arena the session's table
	// compiles filters through (dataset.Table.SetArena — table-wide, like
	// Pool, so sessions sharing one table should agree on it; a service
	// configures it once per registered dataset). With an arena, steady-state
	// filter steps recycle their bitmap words instead of allocating. Like
	// Pool it is an execution hint only: results are bit-identical with or
	// without it. Nil leaves the table's current arena untouched.
	Arena *dataset.WordArena
	// Catalog, when non-nil, resolves registered dataset names for JoinDataset
	// steps (the server passes its dataset registry). Sessions without a
	// catalog reject join steps; every other step works without one.
	Catalog plan.Catalog
}

// Session is one AWARE exploration session over a fixed dataset. It owns the
// visualizations the user has created, the hypotheses derived from them (via
// the heuristics of Section 2.3 or explicit user actions), and the
// α-investing procedure that decides, incrementally and irrevocably, which
// null hypotheses are rejected.
//
// Every mutation is a Step applied through Apply (or ApplyTraced), and every
// successful Step is recorded in the append-only journal returned by Log, so a
// session can be persisted and reconstructed deterministically with Replay.
//
// Session is not safe for concurrent use: Apply mutates the session, and the
// accessors read state Apply mutates. Accessors return copied slices, but the
// *Visualization and *Hypothesis elements point at live session state, so
// even "read-only" use must be serialized with writers. A single-user
// front-end drives a Session from one event loop; a multi-session service
// must own each Session behind a per-session lock and finish serializing
// snapshots before releasing it, as internal/server.SessionManager does.
type Session struct {
	data     *dataset.Table
	sel      *dataset.SelectionCache
	catalog  plan.Catalog
	investor *investing.Investor
	alpha    float64
	power    float64

	// trace is the step span of the Apply in flight, set by ApplyTraced for
	// exactly the duration of the dispatch (the single-threaded contract makes
	// a plain field sufficient). Nil — the common case — keeps every kernel
	// call on its untraced fast path.
	trace *obs.Span

	visualizations []*Visualization
	hypotheses     []*Hypothesis
	journal        []AppliedStep
}

// NewSession opens a session over the given table.
func NewSession(data *dataset.Table, opts Options) (*Session, error) {
	if data == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = investing.DefaultAlpha
	}
	cfg, err := investing.NewConfig(alpha)
	if err != nil {
		return nil, err
	}
	policy := opts.Policy
	if policy == nil {
		policy, err = investing.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
		if err != nil {
			return nil, err
		}
	}
	inv, err := investing.NewInvestor(cfg, policy)
	if err != nil {
		return nil, err
	}
	power := opts.TargetPower
	if power == 0 {
		power = 0.8
	}
	if power <= 0 || power >= 1 {
		return nil, fmt.Errorf("core: target power must be in (0, 1), got %v", power)
	}
	sel := opts.Selections
	if sel == nil {
		sel = dataset.NewSelectionCache(data)
	} else if sel.Table() != data {
		return nil, fmt.Errorf("core: selection cache is bound to a different table than the session")
	}
	if opts.Pool != nil {
		data.SetPool(opts.Pool)
	}
	if opts.Arena != nil {
		data.SetArena(opts.Arena)
	}
	return &Session{data: data, sel: sel, catalog: opts.Catalog, investor: inv, alpha: alpha, power: power}, nil
}

// Data returns the table the session explores.
func (s *Session) Data() *dataset.Table { return s.data }

// Selections returns the filter-bitmap cache the session resolves predicates
// through (Options.Selections, or the session's own cache). It compiles
// against Data() and is safe for concurrent use.
func (s *Session) Selections() *dataset.SelectionCache { return s.sel }

// Alpha returns the session's mFDR control level.
func (s *Session) Alpha() float64 { return s.alpha }

// PolicyName returns the name of the active investing rule.
func (s *Session) PolicyName() string { return s.investor.PolicyName() }

// Wealth returns the remaining α-wealth.
func (s *Session) Wealth() float64 { return s.investor.Wealth() }

// Visualizations returns the visualizations created so far, in creation order.
func (s *Session) Visualizations() []*Visualization {
	out := make([]*Visualization, len(s.visualizations))
	copy(out, s.visualizations)
	return out
}

// Hypotheses returns every tracked hypothesis in creation order, including
// superseded and deleted ones (the risk gauge shows them greyed out).
func (s *Session) Hypotheses() []*Hypothesis {
	out := make([]*Hypothesis, len(s.hypotheses))
	copy(out, s.hypotheses)
	return out
}

// ActiveHypotheses returns the hypotheses that still count: not superseded,
// not deleted.
func (s *Session) ActiveHypotheses() []*Hypothesis {
	var out []*Hypothesis
	for _, h := range s.hypotheses {
		if h.Status == StatusActive {
			out = append(out, h)
		}
	}
	return out
}

// Discoveries returns the active hypotheses whose null was rejected.
func (s *Session) Discoveries() []*Hypothesis {
	var out []*Hypothesis
	for _, h := range s.ActiveHypotheses() {
		if h.Rejected {
			out = append(out, h)
		}
	}
	return out
}

// ImportantDiscoveries returns the starred discoveries. By Theorem 1 the FDR
// (and mFDR) guarantee of the full discovery set carries over to any subset
// selected independently of the p-values, so the user may report exactly
// these without further correction.
func (s *Session) ImportantDiscoveries() []*Hypothesis {
	var out []*Hypothesis
	for _, h := range s.Discoveries() {
		if h.Starred {
			out = append(out, h)
		}
	}
	return out
}

// visualization looks up a visualization by ID.
func (s *Session) visualization(id int) (*Visualization, error) {
	if id < 1 || id > len(s.visualizations) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVisualization, id)
	}
	return s.visualizations[id-1], nil
}

// hypothesis looks up a hypothesis by ID.
func (s *Session) hypothesis(id int) (*Hypothesis, error) {
	if id < 1 || id > len(s.hypotheses) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownHypothesis, id)
	}
	return s.hypotheses[id-1], nil
}

// --- step implementations ---
//
// Each of the following performs all fallible work (lookups, statistics, the
// α-investing decision) before mutating session state, so that a failed step
// leaves the session exactly as it was: Apply's atomicity contract.

func (s *Session) addVisualization(target string, filter dataset.Predicate) (*Visualization, *Hypothesis, error) {
	if !s.data.HasColumn(target) {
		return nil, nil, fmt.Errorf("%w: %q", dataset.ErrColumnNotFound, target)
	}
	viz := &Visualization{ID: len(s.visualizations) + 1, Target: target, Filter: filter}
	if filter == nil {
		s.visualizations = append(s.visualizations, viz)
		return viz, nil, nil // Rule 1: descriptive.
	}
	hyp, err := s.testFilterVsPopulation(viz)
	if err != nil {
		return nil, nil, err
	}
	s.visualizations = append(s.visualizations, viz)
	viz.HypothesisID = hyp.ID
	return viz, hyp, nil
}

func (s *Session) compareVisualizations(aID, bID int) (*Hypothesis, error) {
	a, err := s.visualization(aID)
	if err != nil {
		return nil, err
	}
	b, err := s.visualization(bID)
	if err != nil {
		return nil, err
	}
	if a.Target != b.Target {
		return nil, fmt.Errorf("%w: %q vs %q", ErrNotComplementary, a.Target, b.Target)
	}
	test, nA, nB, err := ComparisonTest(s.sel, a.Target, a.Filter, b.Filter, s.trace)
	if err != nil {
		return nil, fmt.Errorf("core: comparison hypothesis for %q vs %q: %w", a.Describe(), b.Describe(), err)
	}
	hyp, err := s.record(test, Hypothesis{
		Null:            fmt.Sprintf("%s = %s", a.Describe(), b.Describe()),
		Alternative:     fmt.Sprintf("%s <> %s", a.Describe(), b.Describe()),
		Source:          SourceRule3,
		VisualizationID: a.ID,
		SupportSize:     nA + nB,
	})
	if err != nil {
		return nil, err
	}
	// Supersede the single-visualization hypotheses: the side-by-side
	// comparison replaces them (Section 2.3, rule 3).
	s.supersedeAttached(hyp, a, b)
	return hyp, nil
}

func (s *Session) testAgainstExpectation(vizID int, expected map[string]float64) (*Hypothesis, error) {
	viz, err := s.visualization(vizID)
	if err != nil {
		return nil, err
	}
	sub, err := s.sel.ViewSpan(viz.Filter, s.trace)
	if err != nil {
		return nil, err
	}
	cats, err := s.data.Categories(viz.Target)
	if err != nil {
		return nil, err
	}
	observed, err := sub.CountsForSpan(viz.Target, cats, s.trace)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(cats))
	for i, c := range cats {
		weights[i] = expected[c]
	}
	test, err := stats.ChiSquaredGoodnessOfFit(observed, weights)
	if err != nil {
		return nil, fmt.Errorf("core: testing expectation for %q: %w", viz.Describe(), err)
	}
	hyp, err := s.record(test, Hypothesis{
		Null:            fmt.Sprintf("%s = expected distribution", viz.Describe()),
		Alternative:     fmt.Sprintf("%s <> expected distribution", viz.Describe()),
		Source:          SourceUser,
		VisualizationID: viz.ID,
		SupportSize:     sub.NumRows(),
	})
	if err != nil {
		return nil, err
	}
	s.supersedeAttached(hyp, viz)
	return hyp, nil
}

func (s *Session) compareMeans(numericAttr string, aID, bID int) (*Hypothesis, error) {
	a, b, xs, ys, err := s.comparedFloats(numericAttr, aID, bID)
	if err != nil {
		return nil, err
	}
	test, err := stats.WelchTTest(xs, ys, stats.TwoSided)
	if err != nil {
		return nil, fmt.Errorf("core: comparing means of %q: %w", numericAttr, err)
	}
	hyp, err := s.record(test, Hypothesis{
		Null:            fmt.Sprintf("mean %s | (%s) = mean %s | (%s)", numericAttr, describeFilter(a.Filter), numericAttr, describeFilter(b.Filter)),
		Alternative:     fmt.Sprintf("mean %s | (%s) <> mean %s | (%s)", numericAttr, describeFilter(a.Filter), numericAttr, describeFilter(b.Filter)),
		Source:          SourceUser,
		VisualizationID: a.ID,
		SupportSize:     len(xs) + len(ys),
	})
	if err != nil {
		return nil, err
	}
	s.supersedeAttached(hyp, a, b)
	return hyp, nil
}

func (s *Session) compareDistributions(numericAttr string, aID, bID int) (*Hypothesis, error) {
	a, b, xs, ys, err := s.comparedFloats(numericAttr, aID, bID)
	if err != nil {
		return nil, err
	}
	test, err := stats.KolmogorovSmirnov(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("core: comparing distributions of %q: %w", numericAttr, err)
	}
	hyp, err := s.record(test, Hypothesis{
		Null:            fmt.Sprintf("dist %s | (%s) = dist %s | (%s)", numericAttr, describeFilter(a.Filter), numericAttr, describeFilter(b.Filter)),
		Alternative:     fmt.Sprintf("dist %s | (%s) <> dist %s | (%s)", numericAttr, describeFilter(a.Filter), numericAttr, describeFilter(b.Filter)),
		Source:          SourceUser,
		VisualizationID: a.ID,
		SupportSize:     len(xs) + len(ys),
	})
	if err != nil {
		return nil, err
	}
	s.supersedeAttached(hyp, a, b)
	return hyp, nil
}

// comparedFloats resolves the two visualizations of an explicit comparison and
// extracts the numeric attribute from their filtered sub-populations.
func (s *Session) comparedFloats(numericAttr string, aID, bID int) (a, b *Visualization, xs, ys []float64, err error) {
	if a, err = s.visualization(aID); err != nil {
		return nil, nil, nil, nil, err
	}
	if b, err = s.visualization(bID); err != nil {
		return nil, nil, nil, nil, err
	}
	subA, err := s.sel.ViewSpan(a.Filter, s.trace)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	subB, err := s.sel.ViewSpan(b.Filter, s.trace)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if xs, err = subA.FloatsSpan(numericAttr, s.trace); err != nil {
		return nil, nil, nil, nil, err
	}
	if ys, err = subB.FloatsSpan(numericAttr, s.trace); err != nil {
		return nil, nil, nil, nil, err
	}
	return a, b, xs, ys, nil
}

func (s *Session) declareDescriptive(vizID int) error {
	viz, err := s.visualization(vizID)
	if err != nil {
		return err
	}
	if viz.HypothesisID == 0 {
		return nil
	}
	hyp, err := s.hypothesis(viz.HypothesisID)
	if err != nil {
		return err
	}
	hyp.Status = StatusDeleted
	viz.HypothesisID = 0
	return nil
}

func (s *Session) star(hypothesisID int, starred bool) error {
	hyp, err := s.hypothesis(hypothesisID)
	if err != nil {
		return err
	}
	hyp.Starred = starred
	return nil
}

// supersedeAttached marks the active hypotheses currently attached to the
// visualizations as superseded and attaches the replacement in their place.
func (s *Session) supersedeAttached(replacement *Hypothesis, vizzes ...*Visualization) {
	for _, viz := range vizzes {
		if viz.HypothesisID != 0 && viz.HypothesisID != replacement.ID {
			if prev, err := s.hypothesis(viz.HypothesisID); err == nil && prev.Status == StatusActive {
				prev.Status = StatusSuperseded
			}
		}
		viz.HypothesisID = replacement.ID
	}
}

// testFilterVsPopulation runs the rule-2 default hypothesis for a filtered
// visualization.
func (s *Session) testFilterVsPopulation(viz *Visualization) (*Hypothesis, error) {
	test, support, err := FilterVsPopulationTest(s.sel, viz.Target, viz.Filter, s.trace)
	if err != nil {
		return nil, fmt.Errorf("core: default hypothesis for %q: %w", viz.Describe(), err)
	}
	return s.record(test, Hypothesis{
		Null:            fmt.Sprintf("%s = %s", viz.Describe(), viz.Target),
		Alternative:     fmt.Sprintf("%s <> %s", viz.Describe(), viz.Target),
		Source:          SourceRule2,
		VisualizationID: viz.ID,
		SupportSize:     support,
	})
}

// record routes a completed statistical test through the α-investing
// procedure, fills in the bookkeeping fields and stores the hypothesis.
func (s *Session) record(test stats.TestResult, proto Hypothesis) (*Hypothesis, error) {
	decision, err := s.investor.Test(test.PValue, investing.TestContext{
		SupportSize:    proto.SupportSize,
		PopulationSize: s.data.NumRows(),
	})
	if err != nil {
		if err == investing.ErrExhausted {
			return nil, ErrWealthExhausted
		}
		return nil, err
	}
	hyp := proto
	hyp.ID = len(s.hypotheses) + 1
	hyp.Status = StatusActive
	hyp.Test = test
	hyp.AlphaInvested = decision.Alpha
	hyp.Rejected = decision.Rejected
	hyp.WealthAfter = decision.WealthAfter
	hyp.PopulationSize = s.data.NumRows()
	hyp.DataMultiplier = s.dataMultiplier(test, proto.SupportSize)
	s.hypotheses = append(s.hypotheses, &hyp)
	return s.hypotheses[len(s.hypotheses)-1], nil
}

// dataMultiplier estimates the n_H1 annotation: how many times the current
// support would be needed for the observed effect to reach the target power at
// the session α. Chi-squared effect sizes (Cramér's V) are treated as Cohen's
// w, for which the same normal-approximation sample-size formula applies.
func (s *Session) dataMultiplier(test stats.TestResult, supportSize int) float64 {
	if supportSize <= 0 {
		return math.Inf(1)
	}
	effect := math.Abs(test.EffectSize)
	if effect == 0 {
		return math.Inf(1)
	}
	mult, err := stats.RequiredMultiplier(supportSize, effect, s.alpha, s.power, stats.TwoSided)
	if err != nil {
		return math.NaN()
	}
	return mult
}
