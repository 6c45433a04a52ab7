package dataset

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The population summaries (summary.go) answer every whole-table read from a
// memo. These tests pin them to a row-by-row scan written here, on the
// shapes where a memo could go wrong: dictionary codes absent from a gathered
// column, single-valued bool columns, 0- and 1-row tables, and selections
// that are full by count although a predicate compiled them.

// scanCounts counts a categorical or bool column row by row through the
// string accessor — the reference the summaries must match.
func scanCounts(t *testing.T, tab *Table, col string) map[string]int {
	t.Helper()
	c, err := tab.Column(col)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < tab.NumRows(); i++ {
		v, err := c.StringAt(i)
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	return counts
}

// checkLabelSummary requires every whole-population read of a categorical or
// bool column — on the table and on each given full view — to equal the scan.
func checkLabelSummary(t *testing.T, label string, tab *Table, col string, views ...View) {
	t.Helper()
	want := scanCounts(t, tab, col)
	var wantCats []string
	for v := range want {
		wantCats = append(wantCats, v)
	}
	sort.Strings(wantCats)
	var wantGroups []GroupCount
	for _, v := range wantCats {
		wantGroups = append(wantGroups, GroupCount{Value: v, Count: want[v]})
	}
	// Ask for every present value plus ones the column never holds.
	probe := append(append([]string{"absent"}, wantCats...), "true", "false", "b")
	wantOrdered := make([]int, len(probe))
	for i, v := range probe {
		wantOrdered[i] = want[v]
	}

	// Twice: the first call builds the summary, the second reads the memo.
	for pass := 0; pass < 2; pass++ {
		cats, err := tab.Categories(col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cats, wantCats) {
			t.Fatalf("%s/%s pass %d: Categories = %v, scan %v", label, col, pass, cats, wantCats)
		}
		counts, err := tab.ValueCounts(col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, want) {
			t.Fatalf("%s/%s pass %d: ValueCounts = %v, scan %v", label, col, pass, counts, want)
		}
		ordered, err := tab.CountsFor(col, probe)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ordered, wantOrdered) {
			t.Fatalf("%s/%s pass %d: Table.CountsFor = %v, scan %v", label, col, pass, ordered, wantOrdered)
		}
		groups, err := tab.GroupBy(col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(groups, wantGroups) {
			t.Fatalf("%s/%s pass %d: Table.GroupBy = %v, scan %v", label, col, pass, groups, wantGroups)
		}
		for i, v := range views {
			if !v.full() {
				t.Fatalf("%s: view %d selects %d of %d rows, want a full view", label, i, v.NumRows(), tab.NumRows())
			}
			ordered, err := v.CountsFor(col, probe)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ordered, wantOrdered) {
				t.Fatalf("%s/%s pass %d view %d: View.CountsFor = %v, scan %v", label, col, pass, i, ordered, wantOrdered)
			}
			groups, err := v.GroupBy(col)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(groups, wantGroups) {
				t.Fatalf("%s/%s pass %d view %d: View.GroupBy = %v, scan %v", label, col, pass, i, groups, wantGroups)
			}
		}
	}
}

// checkBinSummary requires View.BinCounts on each full view to equal binning
// every row by the reference arithmetic, and — on an empty table — to fail
// as binning an empty sample does.
func checkBinSummary(t *testing.T, label string, tab *Table, col string, views ...View) {
	t.Helper()
	all, err := tab.Floats(col)
	if err != nil {
		t.Fatal(err)
	}
	// Two bin counts per column: each binning is its own summary.
	for pass := 0; pass < 2; pass++ {
		for _, bins := range []int{10, 3} {
			for i, v := range views {
				got, err := v.BinCounts(col, bins)
				if len(all) == 0 {
					if err == nil {
						t.Fatalf("%s/%s: BinCounts on an empty table = %v, want an error", label, col, got)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if want := legacyBinCounts(all, all, bins); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s pass %d view %d: BinCounts(%d) = %v, scan %v", label, col, pass, i, bins, got, want)
				}
				// The result is the caller's: changing it must not reach the memo.
				got[0] += 1000
			}
		}
	}
}

// fullViews returns views of every row of tab: the nil predicate, and a
// tautological Range over the numeric column num that compiles a bitmap.
func fullViews(t *testing.T, tab *Table, num string) []View {
	t.Helper()
	all, err := tab.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	taut, err := tab.View(Range{Column: num, Low: math.Inf(-1), High: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	return []View{all, taut}
}

func TestSummariesMatchRowScan(t *testing.T) {
	mixed := rowsTable(t, 1000)

	// Select rows whose category is "a" or "c": the gathered column keeps
	// the parent's dictionary, so code "b" is present in it but in no row.
	var ac []int
	for i := 0; i < mixed.NumRows(); i++ {
		if i%3 != 1 {
			ac = append(ac, i)
		}
	}
	gathered, err := mixed.Select(ac)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := gathered.Column("c"); len(c.dict) != 3 {
		t.Fatalf("gathered dictionary %v, want the parent's three values", c.dict)
	}

	boolTable := func(vals ...bool) *Table {
		nums := make([]float64, len(vals))
		for i := range nums {
			nums[i] = float64(i % 7)
		}
		tab, err := NewTable(NewBoolColumn("b", vals), NewFloatColumn("f", nums))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	allTrue := make([]bool, 300)
	allFalse := make([]bool, 300)
	for i := range allTrue {
		allTrue[i] = true
	}

	for name, tab := range map[string]*Table{
		"mixed":     mixed,
		"gathered":  gathered,
		"empty":     rowsTable(t, 0),
		"one-row":   rowsTable(t, 1),
		"multi-run": rowsTable(t, 2*morselRows+65),
	} {
		views := fullViews(t, tab, "f")
		checkLabelSummary(t, name, tab, "c", views...)
		checkLabelSummary(t, name, tab, "b", views...)
		checkBinSummary(t, name, tab, "f", views...)
		checkBinSummary(t, name, tab, "i", views...)
	}
	for name, tab := range map[string]*Table{
		"all-true":  boolTable(allTrue...),
		"all-false": boolTable(allFalse...),
		"one-true":  boolTable(true),
		"one-false": boolTable(false),
	} {
		checkLabelSummary(t, name, tab, "b", fullViews(t, tab, "f")...)
	}
}

// TestSummaryLeavesPartialViewsAlone: a view of some rows counts those rows,
// not the population the table has memoized.
func TestSummaryLeavesPartialViewsAlone(t *testing.T) {
	tab := rowsTable(t, 500)
	if _, err := tab.Categories("c"); err != nil { // build the memo first
		t.Fatal(err)
	}
	pred := Equals{Column: "c", Value: "a"}
	view, err := tab.View(pred)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := referenceIndices(tab, pred)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tab.Select(idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"c", "b"} {
		got, err := view.CountsFor(col, []string{"a", "b", "c", "false", "true"})
		if err != nil {
			t.Fatal(err)
		}
		want := scanCounts(t, sub, col)
		if !reflect.DeepEqual(got, []int{want["a"], want["b"], want["c"], want["false"], want["true"]}) {
			t.Fatalf("partial view CountsFor(%s) = %v, scan %v", col, got, want)
		}
	}
}

// TestSummaryFirstUseRace: many goroutines make the first whole-population
// reads of a fresh table at once. Every one must get the same answer, and
// the table must keep exactly one summary per (column, bins). Run under
// -race (CI does) to check the memo's locking.
func TestSummaryFirstUseRace(t *testing.T) {
	tab := randomSizedTable(rand.New(rand.NewSource(5)), 2*morselRows+17)
	full, err := tab.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	type answer struct {
		cats   []string
		counts []int
		bins   []int
		label  *columnSummary
		binned *columnSummary
	}
	answers := make([]answer, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			a := &answers[g]
			var err error
			if a.cats, err = tab.Categories("color"); err != nil {
				t.Error(err)
				return
			}
			if a.counts, err = full.CountsFor("color", a.cats); err != nil {
				t.Error(err)
				return
			}
			if a.bins, err = full.BinCounts("score", 10); err != nil {
				t.Error(err)
				return
			}
			_, a.label, _ = tab.labelSummary("color")
			a.binned, _ = tab.binSummary("score", 10)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		a, b := answers[0], answers[g]
		if !reflect.DeepEqual(a.cats, b.cats) || !reflect.DeepEqual(a.counts, b.counts) || !reflect.DeepEqual(a.bins, b.bins) {
			t.Fatalf("goroutine %d answered %+v, goroutine 0 %+v", g, b, a)
		}
		if a.label != b.label || a.binned != b.binned {
			t.Fatalf("goroutine %d holds a different summary than goroutine 0", g)
		}
	}
	tab.summaryMu.RLock()
	kept := len(tab.summaries)
	tab.summaryMu.RUnlock()
	if kept != 2 {
		t.Fatalf("table keeps %d summaries, want 2 (color, score/10)", kept)
	}
	want := scanCounts(t, tab, "color")
	for i, cat := range answers[0].cats {
		if answers[0].counts[i] != want[cat] {
			t.Fatalf("racing CountsFor %v over %v disagrees with the scan %v", answers[0].counts, answers[0].cats, want)
		}
	}
}
