package server

import (
	"fmt"
	"sync"
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

// TestConcurrentSessionsShareFilterCache drives many goroutine sessions over
// one immutable dataset through the SessionManager, all resolving predicates
// through the dataset's shared SelectionCache — the server's cross-session
// filter-bitmap reuse. Run under -race (CI does) it proves the sharing is
// sound; the assertions prove it is also correct: every session must compute
// identical hypothesis streams, and the cache must actually be hit.
func TestConcurrentSessionsShareFilterCache(t *testing.T) {
	table, err := census.Generate(census.Config{Rows: 3000, Seed: 42, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared := dataset.NewSelectionCache(table)
	sm := NewSessionManager(0, nil)

	// Every session applies the same exploration: a handful of distinct
	// filters, most repeated across sessions so the shared cache pays off.
	filters := []dataset.Predicate{
		dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"},
		dataset.And{Terms: []dataset.Predicate{
			dataset.Equals{Column: census.ColGender, Value: "Female"},
			dataset.Range{Column: census.ColAge, Low: 30, High: 50},
		}},
		dataset.NewIn(census.ColEducation, "Master", "PhD"),
		dataset.Not{Inner: dataset.Equals{Column: census.ColMaritalStatus, Value: "Married"}},
	}

	const sessions = 16
	ids := make([]int64, sessions)
	for i := range ids {
		info, err := sm.CreateWith(SessionSpec{Dataset: "census"}, table, shared, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}

	type outcome struct {
		pvals []float64
		err   error
	}
	results := make([]outcome, sessions)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(slot int, id int64) {
			defer wg.Done()
			err := sm.With(id, func(sess *core.Session) error {
				for _, f := range filters {
					if _, err := sess.Apply(core.AddVisualization{Target: census.ColOccupation, Filter: f}); err != nil {
						return fmt.Errorf("add visualization: %w", err)
					}
				}
				for _, h := range sess.Hypotheses() {
					results[slot].pvals = append(results[slot].pvals, h.Test.PValue)
				}
				return nil
			})
			results[slot].err = err
		}(i, id)
	}
	wg.Wait()

	for i, res := range results {
		if res.err != nil {
			t.Fatalf("session %d: %v", i, res.err)
		}
		if len(res.pvals) != len(filters) {
			t.Fatalf("session %d produced %d hypotheses, want %d", i, len(res.pvals), len(filters))
		}
		for j, p := range res.pvals {
			if p != results[0].pvals[j] {
				t.Errorf("session %d hypothesis %d: p = %v, session 0 got %v — shared cache broke determinism",
					i, j, p, results[0].pvals[j])
			}
		}
	}

	hits, _, misses := shared.Stats()
	if misses == 0 {
		t.Error("shared cache recorded no misses; filters were never compiled through it")
	}
	if hits == 0 {
		t.Error("shared cache recorded no hits; sessions are not actually sharing bitmaps")
	}
	// Only the distinct filters should ever be compiled.
	if got := shared.Len(); got > len(filters) {
		t.Errorf("cache holds %d entries, want at most %d distinct filters", got, len(filters))
	}
}
