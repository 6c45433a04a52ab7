package core

import (
	"fmt"

	"aware/internal/dataset"
	"aware/internal/plan"
	"aware/internal/stats"
)

// This file implements the relational steps: deriving computed columns,
// joining a second registered dataset into the session, and group-by
// hypotheses over arbitrary attribute pairs. All three compile into a logical
// plan (internal/plan), so their filters push down into the cached, tuned
// Where kernels; like every other step they do all fallible work before
// mutating session state.

// scanNode is the plan leaf every relational step builds on: the session's
// current table read through its filter-bitmap cache, so scan-level filters
// are served by exact and subsumption cache hits.
func (s *Session) scanNode() plan.Node {
	return plan.TableScan{Table: s.data, Cache: s.sel}
}

// adoptTable moves the session onto a new table (a join or derive result)
// with a fresh private filter-bitmap cache bound to it. Only called after
// every fallible part of the step succeeded.
func (s *Session) adoptTable(t *dataset.Table) {
	s.data = t
	s.sel = dataset.NewSelectionCache(t)
}

func (s *Session) deriveColumn(name string, e dataset.Expr) error {
	if name == "" {
		return fmt.Errorf("core: derive step requires a column name")
	}
	if e == nil {
		return fmt.Errorf("core: derive step requires an expression")
	}
	res, err := plan.Run(plan.Derive{Input: s.scanNode(), Name: name, Expr: e}, s.catalog)
	if err != nil {
		return fmt.Errorf("core: deriving column %q: %w", name, err)
	}
	s.adoptTable(res.View.Table())
	return nil
}

func (s *Session) joinDataset(name, leftKey, rightKey, prefix string) error {
	if name == "" || leftKey == "" || rightKey == "" {
		return fmt.Errorf("core: join step requires a dataset and both key columns")
	}
	if s.catalog == nil {
		return fmt.Errorf("core: join steps require a session catalog (Options.Catalog)")
	}
	res, err := plan.Run(plan.Join{
		Left:        s.scanNode(),
		Right:       plan.Scan{Dataset: name},
		LeftKey:     leftKey,
		RightKey:    rightKey,
		RightPrefix: prefix,
	}, s.catalog)
	if err != nil {
		return fmt.Errorf("core: joining with dataset %q: %w", name, err)
	}
	s.adoptTable(res.View.Table())
	return nil
}

func (s *Session) groupByHypothesis(rowAttr, colAttr string, filter dataset.Predicate) (*Hypothesis, error) {
	if rowAttr == "" || colAttr == "" {
		return nil, fmt.Errorf("core: group-by step requires row and column attributes")
	}
	node := plan.GroupBy{
		Input:   plan.Filter{Input: s.scanNode(), Pred: filter},
		RowAttr: rowAttr,
		ColAttr: colAttr,
		Bins:    numericBins,
	}
	res, err := plan.Run(node, s.catalog)
	if err != nil {
		return nil, fmt.Errorf("core: group-by hypothesis %q × %q: %w", rowAttr, colAttr, err)
	}
	test, err := stats.ChiSquaredIndependence(res.Cross.Counts)
	if err != nil {
		return nil, fmt.Errorf("core: group-by hypothesis %q × %q: %w", rowAttr, colAttr, err)
	}
	support := 0
	for _, row := range res.Cross.Counts {
		for _, c := range row {
			support += c
		}
	}
	return s.record(test, Hypothesis{
		Null:        fmt.Sprintf("%s independent of %s | (%s)", rowAttr, colAttr, describeFilter(filter)),
		Alternative: fmt.Sprintf("%s associated with %s | (%s)", rowAttr, colAttr, describeFilter(filter)),
		Source:      SourceUser,
		SupportSize: support,
	})
}
