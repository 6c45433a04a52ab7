package core_test

import (
	"fmt"
	"sync"
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

// TestConcurrentSessionsShareOnePool drives 8 independent sessions over one
// shared morsel-parallel pool and one shared SelectionCache, concurrently
// (run with -race). Each session applies its own mix of filtered
// visualizations and comparisons; afterwards, a sequential twin session
// (1-worker pool, private cache) replays the same steps and every p-value
// must match exactly — the parallel engine may never change a statistical
// result.
func TestConcurrentSessionsShareOnePool(t *testing.T) {
	tab, err := census.Generate(census.Config{Rows: 40000, Seed: 11, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := dataset.NewPool(8)
	defer pool.Close()
	tab.SetPool(pool)
	shared := dataset.NewSelectionCache(tab)

	steps := func(k int) []core.Step {
		lo := float64(20 + 2*k)
		return []core.Step{
			core.AddVisualization{Target: census.ColGender, Filter: dataset.Range{Column: census.ColAge, Low: lo, High: lo + 12}},
			core.AddVisualization{Target: census.ColGender, Filter: dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}},
			core.AddVisualization{Target: census.ColAge, Filter: dataset.Equals{Column: census.ColEducation, Value: "Bachelor"}},
			core.CompareVisualizations{A: 1, B: 2},
			core.CompareMeans{Attribute: census.ColHoursPerWeek, A: 1, B: 2},
		}
	}

	const sessions = 8
	results := make([][]float64, sessions)
	var wg sync.WaitGroup
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sess, err := core.NewSession(tab, core.Options{Selections: shared})
			if err != nil {
				t.Error(err)
				return
			}
			for _, step := range steps(k) {
				if _, err := sess.Apply(step); err != nil {
					t.Errorf("session %d: %v", k, err)
					return
				}
			}
			var ps []float64
			for _, h := range sess.Hypotheses() {
				ps = append(ps, h.Test.PValue)
			}
			results[k] = ps
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Sequential twin: same data regenerated, pinned to one worker, private
	// cache. Identical p-values prove the shared-parallel path changed nothing.
	seqTab, err := census.Generate(census.Config{Rows: 40000, Seed: 11, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqPool := dataset.NewPool(1)
	defer seqPool.Close()
	seqTab.SetPool(seqPool)
	for k := 0; k < sessions; k++ {
		twin, err := core.NewSession(seqTab, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range steps(k) {
			if _, err := twin.Apply(step); err != nil {
				t.Fatalf("twin %d: %v", k, err)
			}
		}
		hyps := twin.Hypotheses()
		if len(hyps) != len(results[k]) {
			t.Fatalf("session %d: %d hypotheses parallel, %d sequential", k, len(results[k]), len(hyps))
		}
		for i, h := range hyps {
			if results[k][i] != h.Test.PValue {
				t.Errorf("session %d hypothesis %d: parallel p=%v, sequential p=%v",
					k, i+1, results[k][i], h.Test.PValue)
			}
		}
	}
}

// TestEvalParityAcrossPools pins the evaluation layer itself: the χ² tests
// behind rules 2 and 3 return bit-identical p-values and support sizes on a
// 1-worker pool and an 8-worker pool, for categorical and numeric targets.
func TestEvalParityAcrossPools(t *testing.T) {
	tab, err := census.Generate(census.Config{Rows: 50000, Seed: 5, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	filter := dataset.And{Terms: []dataset.Predicate{
		dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"},
		dataset.Range{Column: census.ColAge, Low: 25, High: 55},
	}}
	other := dataset.Not{Inner: filter}

	type outcome struct {
		p1, p2   float64
		n1a, n1b int
		n2a, n2b int
	}
	eval := func(workers int) outcome {
		pool := dataset.NewPool(workers)
		defer pool.Close()
		tab.SetPool(pool)
		cache := dataset.NewSelectionCache(tab)
		t1, n1, err := core.FilterVsPopulationTest(cache, census.ColGender, filter, nil)
		if err != nil {
			t.Fatal(err)
		}
		t2, n2a, n2b, err := core.ComparisonTest(cache, census.ColAge, filter, other, nil)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{p1: t1.PValue, p2: t2.PValue, n1a: n1, n2a: n2a, n2b: n2b}
	}

	seq := eval(1)
	par := eval(8)
	tab.SetPool(nil)
	if seq != par {
		t.Fatalf("evaluation differs across pools:\nsequential %+v\nparallel   %+v", seq, par)
	}
	if fmt.Sprintf("%x", seq.p1) != fmt.Sprintf("%x", par.p1) {
		t.Fatalf("p-value bits differ: %x vs %x", seq.p1, par.p1)
	}
}
