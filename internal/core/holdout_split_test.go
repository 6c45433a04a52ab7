package core_test

import (
	"math"
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/stats"
)

// TestHoldoutCompareMeansMatchesMaterializedHalves pins the bitmap path of
// CompareMeans to the Welch test on the materialized halves of Table.Split
// with the same seed: every statistic and p-value must agree bit for bit.
func TestHoldoutCompareMeansMatchesMaterializedHalves(t *testing.T) {
	tab, err := census.Generate(census.Config{Rows: 5000, Seed: 5, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	filters := []dataset.Predicate{
		rich,
		dataset.Range{Column: census.ColAge, Low: 30, High: 45},
		dataset.And{Terms: []dataset.Predicate{rich, dataset.Equals{Column: census.ColGender, Value: "Female"}}},
	}
	welch := func(half *dataset.Table, attr string, filter dataset.Predicate, alt stats.Alternative) stats.TestResult {
		t.Helper()
		in, err := half.Filter(filter)
		if err != nil {
			t.Fatal(err)
		}
		out, err := half.Filter(dataset.Not{Inner: filter})
		if err != nil {
			t.Fatal(err)
		}
		xs, _ := in.Floats(attr)
		ys, _ := out.Floats(attr)
		res, err := stats.WelchTTest(xs, ys, alt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b stats.TestResult) bool {
		return math.Float64bits(a.PValue) == math.Float64bits(b.PValue) &&
			math.Float64bits(a.Statistic) == math.Float64bits(b.Statistic)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, fraction := range []float64{0.5, 0.3} {
			hv, err := core.NewHoldoutValidator(tab, fraction, 0.05, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			explRows, validRows := hv.Rows()
			explore, validate, err := tab.Split(stats.NewRNG(seed), fraction)
			if err != nil {
				t.Fatal(err)
			}
			if explRows.Count() != explore.NumRows() || validRows.Count() != validate.NumRows() {
				t.Fatalf("seed %d: bitmap halves %d/%d rows, Split %d/%d", seed,
					explRows.Count(), validRows.Count(), explore.NumRows(), validate.NumRows())
			}
			if hv.Exploration().NumRows() != explore.NumRows() || hv.Validation().NumRows() != validate.NumRows() {
				t.Fatalf("seed %d: materialized halves differ in size from Split", seed)
			}
			for _, filter := range filters {
				for _, attr := range []string{census.ColAge, census.ColHoursPerWeek} {
					for _, alt := range []stats.Alternative{stats.TwoSided, stats.Greater} {
						got, err := hv.CompareMeans(attr, filter, alt)
						if err != nil {
							t.Fatal(err)
						}
						wantExpl := welch(explore, attr, filter, alt)
						wantValid := welch(validate, attr, filter, alt)
						if !same(got.Exploration, wantExpl) || !same(got.Validation, wantValid) {
							t.Errorf("seed %d f=%v %s on %v: bitmap %v/%v, materialized %v/%v", seed, fraction, attr, filter,
								got.Exploration.PValue, got.Validation.PValue, wantExpl.PValue, wantValid.PValue)
						}
						if got.Confirmed != (wantExpl.PValue <= 0.05 && wantValid.PValue <= 0.05) {
							t.Errorf("seed %d: confirmed=%v disagrees with the p-values", seed, got.Confirmed)
						}
					}
				}
			}
		}
	}
}

// TestHoldoutOnSessionCacheMatchesFresh: a validator built on a session's
// selection cache answers exactly as one over a fresh cache, and a filter the
// session has already charted is served from the cache instead of compiled.
func TestHoldoutOnSessionCacheMatchesFresh(t *testing.T) {
	tab, err := census.Generate(census.Config{Rows: 5000, Seed: 5, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	sess, err := core.NewSession(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(core.AddVisualization{Target: census.ColGender, Filter: rich}); err != nil {
		t.Fatal(err)
	}
	cache := sess.Selections()
	if cache.Table() != sess.Data() {
		t.Fatal("the session's selection cache compiles against another table")
	}
	for seed := int64(1); seed <= 3; seed++ {
		fresh, err := core.NewHoldoutValidator(tab, 0.5, 0.05, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.CompareMeans(census.ColAge, rich, stats.TwoSided)
		if err != nil {
			t.Fatal(err)
		}
		hitsBefore, _, missesBefore := cache.Stats()
		reused, err := core.NewHoldoutValidatorOn(cache, 0.5, 0.05, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.CompareMeans(census.ColAge, rich, stats.TwoSided)
		if err != nil {
			t.Fatal(err)
		}
		if hits, _, misses := cache.Stats(); hits == hitsBefore || misses != missesBefore {
			t.Errorf("seed %d: the charted filter was not served from the session's cache (hits %d -> %d, misses %d -> %d)",
				seed, hitsBefore, hits, missesBefore, misses)
		}
		for _, pair := range [][2]stats.TestResult{{got.Exploration, want.Exploration}, {got.Validation, want.Validation}} {
			if math.Float64bits(pair[0].PValue) != math.Float64bits(pair[1].PValue) ||
				math.Float64bits(pair[0].Statistic) != math.Float64bits(pair[1].Statistic) {
				t.Errorf("seed %d: session-cache validator %v, fresh %v", seed, pair[0], pair[1])
			}
		}
		if got.Confirmed != want.Confirmed {
			t.Errorf("seed %d: confirmed %v, fresh %v", seed, got.Confirmed, want.Confirmed)
		}
	}
}

// holdoutBenchTable is the 30k-row census the holdout benchmarks split.
func holdoutBenchTable(b *testing.B) *dataset.Table {
	b.Helper()
	tab, err := census.Generate(census.Config{Rows: 30000, Seed: 1, SignalStrength: 1})
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkHoldoutValidate measures one holdout validate request: a fresh
// split and a mean comparison on both halves.
func BenchmarkHoldoutValidate(b *testing.B) {
	tab := holdoutBenchTable(b)
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv, err := core.NewHoldoutValidator(tab, 0.5, 0.05, stats.NewRNG(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hv.CompareMeans(census.ColAge, rich, stats.TwoSided); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHoldoutReplay measures one holdout replay request: a fresh split
// and a six-step log replayed on both materialized halves.
func BenchmarkHoldoutReplay(b *testing.B) {
	tab := holdoutBenchTable(b)
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	steps := []core.Step{
		core.AddVisualization{Target: census.ColGender, Filter: rich},
		core.AddVisualization{Target: census.ColGender, Filter: dataset.Not{Inner: rich}},
		core.CompareVisualizations{A: 1, B: 2},
		core.AddVisualization{Target: census.ColSalaryOver50K, Filter: dataset.Equals{Column: census.ColEducation, Value: "PhD"}},
		core.AddVisualization{Target: census.ColAge, Filter: rich},
		core.AddVisualization{Target: census.ColAge, Filter: dataset.Not{Inner: rich}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv, err := core.NewHoldoutValidator(tab, 0.5, 0.05, stats.NewRNG(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hv.ReplayLog(core.Options{}, steps); err != nil {
			b.Fatal(err)
		}
	}
}
