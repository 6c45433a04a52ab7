package dataset

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"aware/internal/stats"
)

// rowsTable builds an n-row table with one column of every type, so split
// and materialization tests cover each gather path.
func rowsTable(t *testing.T, n int) *Table {
	t.Helper()
	floats := make([]float64, n)
	ints := make([]int64, n)
	cats := make([]string, n)
	bools := make([]bool, n)
	for i := 0; i < n; i++ {
		floats[i] = float64(i) / 3
		ints[i] = int64(i * 7)
		cats[i] = []string{"a", "b", "c"}[i%3]
		bools[i] = i%5 == 0
	}
	tab, err := NewTable(NewFloatColumn("f", floats), NewIntColumn("i", ints),
		NewCategoricalColumn("c", cats), NewBoolColumn("b", bools))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSplitRowsExactComplementaryDeterministic(t *testing.T) {
	for _, n := range []int{2, 3, 63, 64, 65, 128, 1000} {
		tab := rowsTable(t, n)
		for _, f := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			want := min(max(int(math.Round(f*float64(n))), 1), n-1)
			for seed := int64(1); seed <= 5; seed++ {
				expl, err := tab.SplitRows(stats.NewRNG(seed), f)
				if err != nil {
					t.Fatalf("n=%d f=%v: %v", n, f, err)
				}
				if expl.Len() != n || expl.Count() != want || len(expl.Indices()) != want {
					t.Fatalf("n=%d f=%v seed=%d: %d of %d rows selected (count %d), want %d",
						n, f, seed, len(expl.Indices()), expl.Len(), expl.Count(), want)
				}
				valid := expl.Not()
				if valid.Count() != n-want || expl.And(valid).Count() != 0 || expl.Or(valid).Count() != n {
					t.Fatalf("n=%d f=%v seed=%d: halves are not complementary", n, f, seed)
				}
				again, err := tab.SplitRows(stats.NewRNG(seed), f)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again.Indices(), expl.Indices()) {
					t.Fatalf("n=%d f=%v seed=%d: same seed drew different rows", n, f, seed)
				}
			}
		}
	}
	tab := rowsTable(t, 10)
	for _, f := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := tab.SplitRows(stats.NewRNG(1), f); err == nil {
			t.Errorf("fraction %v accepted", f)
		}
	}
	if _, err := tab.SplitRows(nil, 0.5); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := rowsTable(t, 1).SplitRows(stats.NewRNG(1), 0.5); err != ErrEmptyTable {
		t.Errorf("one-row table: %v, want ErrEmptyTable", err)
	}
}

// TestSplitRowsUniform checks, at a fixed seed, that every row lands in the
// exploration half as often as a uniform cut-subset predicts, and that on a
// tiny table every cut-subset is drawn about equally often.
func TestSplitRowsUniform(t *testing.T) {
	const draws = 20000
	within := func(got int, p float64) bool {
		mean := draws * p
		return math.Abs(float64(got)-mean) <= 5*math.Sqrt(mean*(1-p))
	}
	rng := stats.NewRNG(42)
	for _, c := range []struct {
		n int
		f float64
	}{{65, 0.25}, {65, 0.5}, {100, 0.9}, {130, 0.03}} {
		tab := rowsTable(t, c.n)
		hits := make([]int, c.n)
		var cut int
		for d := 0; d < draws; d++ {
			sel, err := tab.SplitRows(rng, c.f)
			if err != nil {
				t.Fatal(err)
			}
			cut = sel.Count()
			sel.ForEach(func(row int) { hits[row]++ })
		}
		p := float64(cut) / float64(c.n)
		for row, h := range hits {
			if !within(h, p) {
				t.Errorf("n=%d f=%v: row %d included %d times in %d draws, want about %.0f",
					c.n, c.f, row, h, draws, draws*p)
			}
		}
	}

	// n=5, cut=2: all C(5,2)=10 subsets must be equally likely.
	tab := rowsTable(t, 5)
	subsets := make(map[uint64]int)
	for d := 0; d < draws; d++ {
		sel, err := tab.SplitRows(rng, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		subsets[sel.words[0]]++
	}
	if len(subsets) != 10 {
		t.Fatalf("drew %d distinct 2-subsets of 5 rows, want 10", len(subsets))
	}
	for mask, got := range subsets {
		if !within(got, 0.1) {
			t.Errorf("subset %05b drawn %d times in %d draws, want about %d", mask, got, draws, draws/10)
		}
	}
}

// TestSplitHalvesEqualMaterializedViews pins Split to SplitRows: its halves
// are the split's bitmaps materialized in row order.
func TestSplitHalvesEqualMaterializedViews(t *testing.T) {
	tab := rowsTable(t, 1000)
	for _, f := range []float64{0.3, 0.5} {
		expl, valid, err := tab.Split(stats.NewRNG(7), f)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tab.SplitRows(stats.NewRNG(7), f)
		if err != nil {
			t.Fatal(err)
		}
		for _, half := range []struct {
			got  *Table
			rows *Selection
		}{{expl, rows}, {valid, rows.Not()}} {
			v, err := NewView(tab, half.rows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := v.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if half.got.NumRows() != want.NumRows() {
				t.Fatalf("f=%v: half has %d rows, view %d", f, half.got.NumRows(), want.NumRows())
			}
			for _, col := range []string{"f", "i"} {
				g, _ := half.got.Floats(col)
				w, _ := want.Floats(col)
				if !reflect.DeepEqual(g, w) {
					t.Errorf("f=%v: column %s differs from the materialized view", f, col)
				}
			}
			for _, col := range []string{"c", "b"} {
				g, _ := half.got.Strings(col)
				w, _ := want.Strings(col)
				if !reflect.DeepEqual(g, w) {
					t.Errorf("f=%v: column %s differs from the materialized view", f, col)
				}
			}
		}
	}
}

// TestBoolCategoriesMatchStringsPath compares the bool fast paths of
// Categories and ValueCounts with the stringify-and-hash path they replace.
func TestBoolCategoriesMatchStringsPath(t *testing.T) {
	for name, vals := range map[string][]bool{
		"all-true":  {true, true, true},
		"all-false": {false, false},
		"mixed":     {true, false, false, true, false},
		"one-row":   {true},
		"empty":     {},
	} {
		tab, err := NewTable(NewBoolColumn("b", vals))
		if err != nil {
			t.Fatal(err)
		}
		strs, err := tab.Strings("b")
		if err != nil {
			t.Fatal(err)
		}
		wantCounts := make(map[string]int)
		var wantCats []string
		for _, s := range strs {
			if wantCounts[s] == 0 {
				wantCats = append(wantCats, s)
			}
			wantCounts[s]++
		}
		sort.Strings(wantCats)
		cats, err := tab.Categories("b")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cats, wantCats) {
			t.Errorf("%s: Categories = %q, want %q", name, cats, wantCats)
		}
		counts, err := tab.ValueCounts("b")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Errorf("%s: ValueCounts = %v, want %v", name, counts, wantCounts)
		}
	}
	tab := rowsTable(t, 4)
	if _, err := tab.Categories("f"); err == nil {
		t.Error("Categories accepted a numeric column")
	}
	if _, err := tab.ValueCounts("missing"); err == nil {
		t.Error("ValueCounts accepted a missing column")
	}
}
