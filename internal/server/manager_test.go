package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

func testTable(t *testing.T) *dataset.Table {
	t.Helper()
	table, err := census.Generate(census.Config{Rows: 500, Seed: 1, SignalStrength: 1})
	if err != nil {
		t.Fatalf("generating census: %v", err)
	}
	return table
}

func TestSessionManagerMonotonicIDs(t *testing.T) {
	table := testTable(t)
	sm := NewSessionManager(0, nil)
	first, err := sm.Create(SessionSpec{Dataset: "census"}, table)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sm.Create(SessionSpec{Dataset: "census"}, table)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != 1 || second.ID != 2 {
		t.Errorf("want IDs 1, 2; got %d, %d", first.ID, second.ID)
	}
	if !sm.Delete(first.ID) {
		t.Errorf("Delete(%d) = false, want true", first.ID)
	}
	third, err := sm.Create(SessionSpec{Dataset: "census"}, table)
	if err != nil {
		t.Fatal(err)
	}
	if third.ID != 3 {
		t.Errorf("IDs must not be reused after deletion: got %d, want 3", third.ID)
	}
}

func TestSessionManagerWithUnknownSession(t *testing.T) {
	sm := NewSessionManager(0, nil)
	err := sm.With(42, func(*core.Session) error { return nil })
	if !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("With(42) = %v, want ErrSessionNotFound", err)
	}
}

func TestSessionManagerSweepIdle(t *testing.T) {
	table := testTable(t)
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	sm := NewSessionManager(time.Minute, now)

	stale, err := sm.Create(SessionSpec{Dataset: "census"}, table)
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(45 * time.Second)
	fresh, err := sm.Create(SessionSpec{Dataset: "census"}, table)
	if err != nil {
		t.Fatal(err)
	}

	// 30 s later the stale session is 75 s idle, the fresh one only 30 s.
	clock = clock.Add(30 * time.Second)
	expired := sm.SweepIdle()
	if len(expired) != 1 || expired[0] != stale.ID {
		t.Fatalf("SweepIdle() = %v, want [%d]", expired, stale.ID)
	}
	if err := sm.With(stale.ID, func(*core.Session) error { return nil }); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("expired session still reachable: %v", err)
	}

	// Touching the fresh session resets its idle clock.
	if err := sm.With(fresh.ID, func(*core.Session) error { return nil }); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(45 * time.Second)
	if expired := sm.SweepIdle(); len(expired) != 0 {
		t.Errorf("SweepIdle() after activity = %v, want none", expired)
	}
	clock = clock.Add(30 * time.Second)
	if expired := sm.SweepIdle(); len(expired) != 1 || expired[0] != fresh.ID {
		t.Errorf("SweepIdle() = %v, want [%d]", expired, fresh.ID)
	}
}

func TestSessionManagerZeroTTLNeverSweeps(t *testing.T) {
	table := testTable(t)
	clock := time.Unix(1000, 0)
	sm := NewSessionManager(0, func() time.Time { return clock })
	if _, err := sm.Create(SessionSpec{Dataset: "census"}, table); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(1000 * time.Hour)
	if expired := sm.SweepIdle(); expired != nil {
		t.Errorf("SweepIdle() with zero TTL = %v, want nil", expired)
	}
}

// TestSessionManagerConcurrentAccess hammers one shared session and several
// private ones from many goroutines; run with -race.
func TestSessionManagerConcurrentAccess(t *testing.T) {
	table := testTable(t)
	sm := NewSessionManager(0, nil)
	shared, err := sm.Create(SessionSpec{Dataset: "census"}, table)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own, err := sm.Create(SessionSpec{Dataset: "census"}, table)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			for i := 0; i < 5; i++ {
				for _, id := range []int64{shared.ID, own.ID} {
					err := sm.With(id, func(sess *core.Session) error {
						_, err := sess.Apply(core.AddVisualization{Target: census.ColGender, Filter: dataset.Equals{
							Column: census.ColSalaryOver50K, Value: "true",
						}})
						if err != nil {
							return err
						}
						sess.Gauge()
						return nil
					})
					if err != nil && !errors.Is(err, core.ErrWealthExhausted) {
						t.Errorf("worker %d: %v", w, err)
					}
				}
			}
			sm.List()
			if !sm.Delete(own.ID) {
				t.Errorf("worker %d: own session vanished", w)
			}
		}(w)
	}
	wg.Wait()

	if got := sm.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1 (only the shared session left)", got)
	}
	var tests int
	if err := sm.With(shared.ID, func(sess *core.Session) error {
		tests = len(sess.Hypotheses())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tests == 0 {
		t.Error("shared session recorded no hypotheses")
	}
}
