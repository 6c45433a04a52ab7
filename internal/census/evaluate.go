package census

import (
	"fmt"

	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/stats"
)

// StepResult is the outcome of evaluating one workflow hypothesis against a
// concrete table (the full census, a down-sample, or the randomized copy).
type StepResult struct {
	// Step echoes the workflow step that was evaluated.
	Step WorkflowStep
	// Test carries the p-value, statistic, degrees of freedom and effect size.
	Test stats.TestResult
	// SupportSize is the number of rows selected by the step's filter: the
	// quantity the ψ-support investing rule keys on.
	SupportSize int
	// PopulationSize is the total number of rows in the evaluated table.
	PopulationSize int
}

// EvaluateStep computes the p-value of a single workflow hypothesis on the
// table of sel using the chi-squared tests that AWARE's default hypotheses
// prescribe: a goodness-of-fit test against the population distribution for
// FilterVsPopulation, and an independence test between the filtered and
// complementary sub-populations for FilterVsComplement. Both delegate to the
// evaluation layer of internal/core, so the paper-figure harness runs the
// exact tests an interactive session would run for the equivalent core.Step
// sequence (see Workflow.CoreSteps). Filters resolve through sel, so a whole
// workflow (EvaluateWorkflow) — or repeated evaluations over one table —
// compiles each distinct filter chain into a bitmap exactly once.
func EvaluateStep(sel *dataset.SelectionCache, step WorkflowStep) (StepResult, error) {
	if step.Filter == nil {
		return StepResult{}, fmt.Errorf("census: step %d has no filter", step.ID)
	}
	t := sel.Table()
	result := StepResult{Step: step, PopulationSize: t.NumRows()}

	switch step.Kind {
	case FilterVsPopulation:
		test, support, err := core.FilterVsPopulationTest(sel, step.Target, step.Filter, nil)
		if err != nil {
			return StepResult{}, fmt.Errorf("census: step %d: %w", step.ID, err)
		}
		result.Test = test
		result.SupportSize = support
	case FilterVsComplement:
		test, support, _, err := core.ComparisonTest(sel, step.Target, step.Filter, dataset.Not{Inner: step.Filter}, nil)
		if err != nil {
			return StepResult{}, fmt.Errorf("census: step %d: %w", step.ID, err)
		}
		result.Test = test
		result.SupportSize = support
	default:
		return StepResult{}, fmt.Errorf("census: step %d has unknown kind %v", step.ID, step.Kind)
	}
	return result, nil
}

// EvaluateWorkflow evaluates every step of the workflow against the table,
// in order. Steps whose filters select too little data to test (for example
// a chain that matches nothing in a small down-sample) are reported with a
// p-value of 1 rather than dropped, so that the hypothesis stream keeps the
// same length across sample sizes — the procedure simply has no evidence to
// reject them, which matches how AWARE treats empty visualizations.
func EvaluateWorkflow(t *dataset.Table, w *Workflow) ([]StepResult, error) {
	// One filter-bitmap cache for the whole workflow: user-study workflows
	// revisit the same filter chains across steps, and FilterVsComplement
	// shares its filter's bitmap with the chain steps that extend it.
	sel := dataset.NewSelectionCache(t)
	results := make([]StepResult, 0, len(w.Steps))
	for _, step := range w.Steps {
		res, err := EvaluateStep(sel, step)
		if err != nil {
			// Degenerate sub-population (empty filter or collapsed table):
			// keep the step with a non-informative p-value.
			supportSel, countErr := sel.Where(step.Filter)
			if countErr != nil {
				return nil, countErr
			}
			support := supportSel.Count()
			res = StepResult{
				Step:           step,
				Test:           stats.TestResult{PValue: 1, Method: "degenerate (insufficient data)"},
				SupportSize:    support,
				PopulationSize: t.NumRows(),
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// PValues extracts the p-value stream from evaluated results, in order.
func PValues(results []StepResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.Test.PValue
	}
	return out
}

// GroundTruth labels each workflow step as a true discovery or a true null by
// running the Bonferroni procedure on the full-size table, exactly as
// described for Exp. 2: a step is "truly significant" when Bonferroni rejects
// it on the full data. labelAlpha is the level used for that labelling
// (the paper uses the experiment's alpha, 0.05).
func GroundTruth(full *dataset.Table, w *Workflow, labelAlpha float64) ([]bool, error) {
	results, err := EvaluateWorkflow(full, w)
	if err != nil {
		return nil, err
	}
	m := len(results)
	threshold := labelAlpha / float64(m)
	trueNull := make([]bool, m)
	for i, r := range results {
		trueNull[i] = r.Test.PValue > threshold
	}
	return trueNull, nil
}
