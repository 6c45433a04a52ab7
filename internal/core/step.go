package core

import (
	"errors"
	"fmt"

	"aware/internal/dataset"
)

// ErrUnknownStep is returned by Session.Apply for a nil Step or a Step kind
// outside the closed set defined in this package.
var ErrUnknownStep = errors.New("core: unknown step")

// Step is one serializable exploration command: the closed algebra of session
// mutations. Every way a Session can change is expressible as a Step value, so
// an exploration is fully described by its ordered Step sequence — which can
// be logged (Session.Log), persisted (MarshalStep), replayed deterministically
// (Replay) and re-validated on a hold-out split (HoldoutValidator.ReplayLog).
// The set is sealed: only the ten types in this package implement it.
type Step interface {
	// Kind returns the step's stable wire name, e.g. "add_visualization".
	Kind() string
	isStep()
}

// AddVisualization creates a chart for Target restricted by Filter (nil for
// the whole dataset) and applies the default hypothesis heuristics:
//
//   - Rule 1: an unfiltered visualization is descriptive — no hypothesis is
//     created (StepResult.Hypothesis is nil). The user can attach one later
//     with TestAgainstExpectation.
//   - Rule 2: a filtered visualization creates the default hypothesis that the
//     filter makes no difference compared to the distribution of the target
//     over the whole dataset, tested with a χ² goodness-of-fit test.
type AddVisualization struct {
	Target string
	Filter dataset.Predicate
}

// CompareVisualizations applies heuristic rule 3: visualizations A and B show
// the same target attribute under complementary (or simply different) filter
// chains, and the user placed them next to each other, so the default
// hypothesis becomes "the two visualized distributions do not differ", tested
// with a χ² independence test. Any rule-2 hypotheses previously attached to
// the two visualizations are superseded.
type CompareVisualizations struct {
	A, B int
}

// CompareMeans overrides the default distribution comparison of
// visualizations A and B with a Welch t-test on the means of the numeric
// Attribute between the two filtered sub-populations — the explicit test of
// Figure 1 (F) where the user drags two age charts together and the default
// hypothesis m4 is replaced by m4' about the average age. Hypotheses
// previously attached to the two visualizations are superseded.
type CompareMeans struct {
	Attribute string
	A, B      int
}

// CompareDistributions overrides the default comparison of visualizations A
// and B with a two-sample Kolmogorov–Smirnov test on the numeric Attribute —
// useful when the analyst cares about the whole shape of the distribution
// rather than its mean, or when the attribute is too skewed for a t-test.
// Hypotheses previously attached to the two visualizations are superseded,
// exactly as in CompareMeans.
type CompareDistributions struct {
	Attribute string
	A, B      int
}

// TestAgainstExpectation attaches a user-defined hypothesis to the identified
// unfiltered visualization (rule 1's escape hatch): the user states the
// proportions they expected for the target's categories, and the observed
// distribution is tested against that expectation with a χ² goodness-of-fit
// test. Expected gives relative weights per category; missing categories
// count as weight zero.
type TestAgainstExpectation struct {
	Visualization int
	Expected      map[string]float64
}

// DeclareDescriptive marks the hypothesis attached to the identified
// visualization as deleted: the user states that the chart was purely
// descriptive (or only a stepping stone, Section 2.4). The α-wealth already
// spent on it is not refunded — refunding would break the mFDR guarantee —
// but the hypothesis no longer appears among the session's findings.
type DeclareDescriptive struct {
	Visualization int
}

// Star marks (or unmarks) a hypothesis as an important discovery (Figure 2 E).
type Star struct {
	Hypothesis int
	Starred    bool
}

// DeriveColumn extends the session's table with a computed numeric column
// (arithmetic and bucketing over existing numeric columns, see dataset.Expr)
// and continues the session over the extended table. The row set is
// unchanged, so existing visualizations and hypotheses stay valid;
// subsequent steps can filter, group and test on the derived column.
type DeriveColumn struct {
	Name string
	Expr dataset.Expr
}

// JoinDataset hash equi-joins the session's table (left side) with a dataset
// registered in the session's catalog (right side) on LeftKey = RightKey. The
// session continues over the join result: left columns keep their names,
// right columns are renamed Prefix+name. Requires Options.Catalog.
type JoinDataset struct {
	Dataset  string
	LeftKey  string
	RightKey string
	Prefix   string
}

// GroupByHypothesis tests the independence of two attributes over the rows
// matching Filter (nil for the whole table) with a χ² test on their
// contingency table — the group-by generalization of the rule-2/rule-3
// defaults to arbitrary column pairs — routed through the α-investing
// procedure like every other hypothesis. Numeric attributes are cut into
// equal-width bins.
type GroupByHypothesis struct {
	RowAttr string
	ColAttr string
	Filter  dataset.Predicate
}

// Kind implements Step.
func (AddVisualization) Kind() string { return "add_visualization" }

// Kind implements Step.
func (CompareVisualizations) Kind() string { return "compare_visualizations" }

// Kind implements Step.
func (CompareMeans) Kind() string { return "compare_means" }

// Kind implements Step.
func (CompareDistributions) Kind() string { return "compare_distributions" }

// Kind implements Step.
func (TestAgainstExpectation) Kind() string { return "test_against_expectation" }

// Kind implements Step.
func (DeclareDescriptive) Kind() string { return "declare_descriptive" }

// Kind implements Step.
func (Star) Kind() string { return "star" }

// Kind implements Step.
func (DeriveColumn) Kind() string { return "derive_column" }

// Kind implements Step.
func (JoinDataset) Kind() string { return "join_dataset" }

// Kind implements Step.
func (GroupByHypothesis) Kind() string { return "group_by" }

func (AddVisualization) isStep()       {}
func (CompareVisualizations) isStep()  {}
func (CompareMeans) isStep()           {}
func (CompareDistributions) isStep()   {}
func (TestAgainstExpectation) isStep() {}
func (DeclareDescriptive) isStep()     {}
func (Star) isStep()                   {}
func (DeriveColumn) isStep()           {}
func (JoinDataset) isStep()            {}
func (GroupByHypothesis) isStep()      {}

// StepResult reports what applying a Step produced. The pointers reference
// live session state, so the single-threaded contract of Session applies.
type StepResult struct {
	// Seq is the 1-based position the step took in the session journal.
	Seq int
	// Visualization is the chart created by an AddVisualization step
	// (nil for every other kind).
	Visualization *Visualization
	// Hypothesis is the hypothesis the step created (nil for descriptive
	// visualizations, DeclareDescriptive and Star).
	Hypothesis *Hypothesis
}

// AppliedStep is one entry of the session journal: the command plus the IDs it
// produced. Unlike StepResult it holds no pointers, so a copied journal can be
// serialized or replayed after the session lock is released.
type AppliedStep struct {
	// Seq is the 1-based position in the journal.
	Seq int
	// Step is the command that was applied.
	Step Step
	// VisualizationID identifies the chart an AddVisualization step created
	// (0 for other kinds).
	VisualizationID int
	// HypothesisID identifies the hypothesis the step created (0 if none).
	HypothesisID int
}

// Apply dispatches a Step to the session: the single entry point every
// mutation goes through. Steps are atomic — on error the session is unchanged
// and nothing is journaled — and successful steps are appended to the journal
// returned by Log. Unknown or nil steps return ErrUnknownStep.
func (s *Session) Apply(step Step) (StepResult, error) {
	res, err := s.dispatch(step)
	if err != nil {
		return StepResult{}, err
	}
	entry := AppliedStep{Seq: len(s.journal) + 1, Step: step}
	if res.Visualization != nil {
		entry.VisualizationID = res.Visualization.ID
	}
	if res.Hypothesis != nil {
		entry.HypothesisID = res.Hypothesis.ID
	}
	s.journal = append(s.journal, entry)
	res.Seq = entry.Seq
	return res, nil
}

// dispatch routes the step to its implementation without journaling.
func (s *Session) dispatch(step Step) (StepResult, error) {
	switch st := step.(type) {
	case AddVisualization:
		viz, hyp, err := s.addVisualization(st.Target, st.Filter)
		if err != nil {
			return StepResult{}, err
		}
		return StepResult{Visualization: viz, Hypothesis: hyp}, nil
	case CompareVisualizations:
		hyp, err := s.compareVisualizations(st.A, st.B)
		if err != nil {
			return StepResult{}, err
		}
		return StepResult{Hypothesis: hyp}, nil
	case CompareMeans:
		hyp, err := s.compareMeans(st.Attribute, st.A, st.B)
		if err != nil {
			return StepResult{}, err
		}
		return StepResult{Hypothesis: hyp}, nil
	case CompareDistributions:
		hyp, err := s.compareDistributions(st.Attribute, st.A, st.B)
		if err != nil {
			return StepResult{}, err
		}
		return StepResult{Hypothesis: hyp}, nil
	case TestAgainstExpectation:
		hyp, err := s.testAgainstExpectation(st.Visualization, st.Expected)
		if err != nil {
			return StepResult{}, err
		}
		return StepResult{Hypothesis: hyp}, nil
	case DeclareDescriptive:
		return StepResult{}, s.declareDescriptive(st.Visualization)
	case Star:
		return StepResult{}, s.star(st.Hypothesis, st.Starred)
	case DeriveColumn:
		return StepResult{}, s.deriveColumn(st.Name, st.Expr)
	case JoinDataset:
		return StepResult{}, s.joinDataset(st.Dataset, st.LeftKey, st.RightKey, st.Prefix)
	case GroupByHypothesis:
		hyp, err := s.groupByHypothesis(st.RowAttr, st.ColAttr, st.Filter)
		if err != nil {
			return StepResult{}, err
		}
		return StepResult{Hypothesis: hyp}, nil
	case nil:
		return StepResult{}, fmt.Errorf("%w: nil", ErrUnknownStep)
	default:
		return StepResult{}, fmt.Errorf("%w: %T", ErrUnknownStep, step)
	}
}

// Log returns the session's append-only journal: every successfully applied
// step in order.
func (s *Session) Log() []AppliedStep {
	out := make([]AppliedStep, len(s.journal))
	copy(out, s.journal)
	return out
}

// StepsFromLog strips the journal down to the bare command sequence, the form
// Replay and HoldoutValidator.ReplayLog consume.
func StepsFromLog(log []AppliedStep) []Step {
	out := make([]Step, len(log))
	for i, e := range log {
		out[i] = e.Step
	}
	return out
}

// Replay reconstructs a session deterministically: it opens a fresh session
// over table with opts and applies the steps in order. Same table, options
// and steps always yield an identical session (and byte-identical reports up
// to the timestamp). On failure the error names the offending step.
func Replay(table *dataset.Table, opts Options, steps []Step) (*Session, error) {
	sess, err := NewSession(table, opts)
	if err != nil {
		return nil, err
	}
	for i, step := range steps {
		if _, err := sess.Apply(step); err != nil {
			return nil, fmt.Errorf("core: replaying step %d/%d: %w", i+1, len(steps), err)
		}
	}
	return sess, nil
}
