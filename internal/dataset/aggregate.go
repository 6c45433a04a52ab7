package dataset

import (
	"fmt"

	"aware/internal/stats"
)

// GroupCount is one bar of a categorical histogram.
type GroupCount struct {
	Value string
	Count int
}

// GroupMeans returns the mean of a numeric column within each category of a
// categorical column.
func (t *Table) GroupMeans(categorical, numeric string) (map[string]float64, error) {
	cats, err := t.Strings(categorical)
	if err != nil {
		return nil, err
	}
	nums, err := t.Floats(numeric)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for i := range cats {
		sums[cats[i]] += nums[i]
		counts[cats[i]]++
	}
	out := make(map[string]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out, nil
}

// NumericHistogram bins a numeric column into the given number of equal-width
// bins.
func (t *Table) NumericHistogram(column string, bins int) (*stats.Histogram, error) {
	vals, err := t.Floats(column)
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, ErrEmptyTable
	}
	return stats.NewHistogram(vals, bins)
}

// Crosstab builds the contingency table of two categorical columns, using the
// category order returned for each column. It is the input to the
// chi-squared independence test of heuristic rule 3.
func (t *Table) Crosstab(rowColumn, colColumn string) (table [][]int, rowCats, colCats []string, err error) {
	rowCats, err = t.Categories(rowColumn)
	if err != nil {
		return nil, nil, nil, err
	}
	colCats, err = t.Categories(colColumn)
	if err != nil {
		return nil, nil, nil, err
	}
	rowVals, err := t.Strings(rowColumn)
	if err != nil {
		return nil, nil, nil, err
	}
	colVals, err := t.Strings(colColumn)
	if err != nil {
		return nil, nil, nil, err
	}
	rowIndex := make(map[string]int, len(rowCats))
	for i, c := range rowCats {
		rowIndex[c] = i
	}
	colIndex := make(map[string]int, len(colCats))
	for i, c := range colCats {
		colIndex[c] = i
	}
	table = make([][]int, len(rowCats))
	for i := range table {
		table[i] = make([]int, len(colCats))
	}
	for i := range rowVals {
		table[rowIndex[rowVals[i]]][colIndex[colVals[i]]]++
	}
	return table, rowCats, colCats, nil
}

// Describe returns a short textual summary of the table, useful for CLI
// output.
func (t *Table) Describe() string {
	return fmt.Sprintf("Table{%d rows, %d columns: %v}", t.NumRows(), t.NumColumns(), t.ColumnNames())
}
