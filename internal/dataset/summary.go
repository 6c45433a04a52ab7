package dataset

import (
	"fmt"

	"aware/internal/stats"
)

// This file holds the per-table population summaries. A table is immutable,
// so the population side of every rule-2 test — the count of each category
// (or bin) over all rows — and the category set that fixes the chart's axes
// are constants of the (table, column) pair. They are computed once, on first
// use, and memoized on the table: a categorical column keeps one count per
// dictionary code, a bool column its [false, true] tally, and a numeric
// column, per bin count, each row's bin next to the per-bin counts. Every
// read of the whole population — Categories, ValueCounts, Table.CountsFor,
// Table.GroupBy, and View.CountsFor/GroupBy/BinCounts on a selection of every
// row — then answers in O(dict) instead of scanning the table.

// summaryKey identifies one memoized summary: a categorical or bool column
// (bins == 0), or a numeric column cut into bins equal-width bins spanning
// the full table's range.
type summaryKey struct {
	column string
	bins   int
}

// columnSummary is one memoized population summary. Both slices are shared
// by every caller and must not be modified.
type columnSummary struct {
	// counts is the number of rows per dictionary code (categorical), per
	// value false/true (bool) or per bin (numeric).
	counts []int
	// assign is each row's bin (numeric binnings only).
	assign []int32
}

// boolLabels is the value space of a bool column, in sorted order.
var boolLabels = []string{"false", "true"}

// labels returns the sorted value space of a categorical or bool column: the
// indices of a summary's counts.
func (c *Column) labels() []string {
	if c.Type == Bool {
		return boolLabels
	}
	return c.dict
}

// labelIndex resolves a value of a categorical or bool column to its index in
// labels().
func (c *Column) labelIndex(value string) (int, bool) {
	if c.Type == Bool {
		switch value {
		case "false":
			return 0, true
		case "true":
			return 1, true
		}
		return 0, false
	}
	code, ok := c.codeOf[value]
	return int(code), ok
}

// labelSummary returns the population summary of a categorical or bool
// column, building it on first use.
func (t *Table) labelSummary(name string) (*Column, *columnSummary, error) {
	c, err := t.categoricalColumn(name)
	if err != nil {
		return nil, nil, err
	}
	s, err := t.summary(summaryKey{column: name}, func() (*columnSummary, error) {
		return &columnSummary{counts: t.tally(c, FullSelection(t.rows))}, nil
	})
	return c, s, err
}

// tally counts the rows of sel per label of the categorical or bool column
// c, with per-morsel partial counts merged in morsel order. The row callbacks
// are literals at the forEachIn calls so the compiler can inline them.
func (t *Table) tally(c *Column, sel *Selection) []int {
	if c.Type == Bool {
		return reduceInts(t.execPool(), sel.n, 2, func(lo, hi int, acc []int) {
			sel.forEachIn(lo, hi, func(row int) {
				if c.bools[row] {
					acc[1]++
				} else {
					acc[0]++
				}
			})
		})
	}
	return reduceInts(t.execPool(), sel.n, len(c.dict), func(lo, hi int, acc []int) {
		sel.forEachIn(lo, hi, func(row int) { acc[c.codes[row]]++ })
	})
}

// binSummary returns the population summary of a numeric column cut into
// binCount equal-width bins spanning the full table's range, building it on
// first use. The arithmetic replicates the reference path —
// stats.NewHistogram edges, then int((v-lo)/width) with clamping, with a
// degenerate-width fallback that assigns every row to bin 0 — so vectorized
// bin counts are bit-for-bit identical to binning a materialized sub-table.
// Only numeric columns have bin summaries, so their keys never meet the
// bins == 0 keys of categorical and bool columns.
func (t *Table) binSummary(column string, binCount int) (*columnSummary, error) {
	c, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	if c.Type != Float64 && c.Type != Int64 {
		return nil, fmt.Errorf("%w: %s is %s, not numeric", ErrTypeMismatch, c.Name, c.Type)
	}
	return t.summary(summaryKey{column: column, bins: binCount}, func() (*columnSummary, error) {
		all, err := t.Floats(column)
		if err != nil {
			return nil, err
		}
		hist, err := stats.NewHistogram(all, binCount)
		if err != nil {
			return nil, err
		}
		lo := hist.Edges[0]
		hi := hist.Edges[len(hist.Edges)-1]
		width := (hi - lo) / float64(binCount)
		s := &columnSummary{counts: make([]int, binCount), assign: make([]int32, len(all))}
		for i, v := range all {
			idx := 0
			if width > 0 {
				idx = min(max(int((v-lo)/width), 0), binCount-1)
			}
			s.assign[i] = int32(idx)
			s.counts[idx]++
		}
		return s, nil
	})
}

// summary returns the memoized summary under key, calling build on a miss.
// Concurrent first callers may each build one, but only the first stored is
// kept and every caller gets that one.
func (t *Table) summary(key summaryKey, build func() (*columnSummary, error)) (*columnSummary, error) {
	t.summaryMu.RLock()
	s := t.summaries[key]
	t.summaryMu.RUnlock()
	if s != nil {
		return s, nil
	}
	s, err := build()
	if err != nil {
		return nil, err
	}
	t.summaryMu.Lock()
	if t.summaries == nil {
		t.summaries = make(map[summaryKey]*columnSummary)
	}
	if prev, ok := t.summaries[key]; ok {
		s = prev
	} else {
		t.summaries[key] = s
	}
	t.summaryMu.Unlock()
	return s, nil
}

// presentLabels returns the labels whose count is positive, in label order.
func presentLabels(labels []string, counts []int) []string {
	var out []string
	for i, n := range counts {
		if n > 0 {
			out = append(out, labels[i])
		}
	}
	return out
}

// groupsOf pairs each label whose count is positive with its count, in label
// order — sorted by value, since labels are.
func groupsOf(labels []string, counts []int) []GroupCount {
	var out []GroupCount
	for i, n := range counts {
		if n > 0 {
			out = append(out, GroupCount{Value: labels[i], Count: n})
		}
	}
	return out
}

// countsFor orders the counts of a categorical or bool column by categories;
// values outside the column's value space count zero.
func countsFor(c *Column, counts []int, categories []string) []int {
	out := make([]int, len(categories))
	for i, cat := range categories {
		if j, ok := c.labelIndex(cat); ok {
			out[i] = counts[j]
		}
	}
	return out
}

// Categories returns the sorted distinct values of a categorical or bool
// column: the values that occur in at least one row, in dictionary order (the
// dictionary is sorted; a bool column's are "false" then "true"). The answer
// comes from the table's memoized population summary, so only the first call
// per column scans the rows; later calls cost O(dictionary).
func (t *Table) Categories(name string) ([]string, error) {
	c, s, err := t.labelSummary(name)
	if err != nil {
		return nil, err
	}
	return presentLabels(c.labels(), s.counts), nil
}

// ValueCounts returns the count of each distinct value of a categorical or
// bool column, keyed by value; values that occur in no row are absent. It
// reads the table's memoized population summary, like Categories.
func (t *Table) ValueCounts(name string) (map[string]int, error) {
	c, s, err := t.labelSummary(name)
	if err != nil {
		return nil, err
	}
	labels := c.labels()
	counts := make(map[string]int)
	for i, n := range s.counts {
		if n > 0 {
			counts[labels[i]] = n
		}
	}
	return counts, nil
}

// CountsFor returns the counts of the column's values in the order given by
// categories (values not present count as zero). This is the canonical input
// to the chi-squared tests used by AWARE's default hypotheses.
func (t *Table) CountsFor(name string, categories []string) ([]int, error) {
	c, s, err := t.labelSummary(name)
	if err != nil {
		return nil, err
	}
	return countsFor(c, s.counts, categories), nil
}

// GroupBy returns the per-value counts of a categorical (or bool) column,
// sorted by value. It is the aggregation behind every bar chart in Figure 1.
func (t *Table) GroupBy(column string) ([]GroupCount, error) {
	c, s, err := t.labelSummary(column)
	if err != nil {
		return nil, err
	}
	return groupsOf(c.labels(), s.counts), nil
}
