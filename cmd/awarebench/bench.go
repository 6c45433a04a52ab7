package main

import (
	"fmt"
	"testing"
	"time"

	"aware/internal/benchio"
	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

// BenchEntry is one operation's measurement in BENCH_core.json. The file is
// the machine-readable perf trajectory of the core interactive loop: future
// optimisation PRs compare their run against the committed baseline, and the
// CI drift gate (-exp drift) fails the build when allocs_per_op regresses.
// The format lives in internal/benchio so cmd/awareload shares it.
type BenchEntry = benchio.Entry

// runBenchCore measures the hot operations of the interactive loop against a
// census table of the given size (the -rows flag; the paper scale of 30000 by
// default) and writes the results as JSON to outPath.
func runBenchCore(outPath string, seed int64, rows int) error {
	table, err := census.Generate(census.Config{Rows: rows, Seed: seed, SignalStrength: 1})
	if err != nil {
		return err
	}
	filter := dataset.And{Terms: []dataset.Predicate{
		dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"},
		dataset.Range{Column: census.ColAge, Low: 30, High: 50},
	}}
	filterJSON, err := dataset.MarshalPredicate(filter)
	if err != nil {
		return err
	}

	// newSession must be cheap enough to call inside per-iteration setup.
	newSession := func() *core.Session {
		sess, err := core.NewSession(table, core.Options{})
		if err != nil {
			panic(err)
		}
		return sess
	}
	// explored returns a session with an accumulated hypothesis history, the
	// state gauge and report rendering have to walk.
	explored := func() *core.Session {
		sess := newSession()
		for i := 0; i < 10; i++ {
			lo := float64(20 + 3*i)
			if _, err := sess.Apply(core.AddVisualization{Target: census.ColGender, Filter: dataset.Range{
				Column: census.ColAge, Low: lo, High: lo + 5,
			}}); err != nil {
				panic(err)
			}
		}
		return sess
	}

	benchmarks := []namedBenchmark{
		{"session_create", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newSession()
			}
		}},
		{"add_visualization", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess := newSession()
				b.StartTimer()
				if _, err := sess.Apply(core.AddVisualization{Target: census.ColGender, Filter: filter}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"gauge_snapshot", func(b *testing.B) {
			sess := explored()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess.Gauge()
			}
		}},
		{"report_build", func(b *testing.B) {
			sess := explored()
			now := time.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess.Report(now)
			}
		}},
		{"table_filter", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := table.Filter(filter); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"count_where", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := table.CountWhere(filter); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"predicate_marshal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dataset.MarshalPredicate(filter); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"predicate_unmarshal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dataset.UnmarshalPredicate(filterJSON); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	fmt.Printf("== core operation benchmarks (census %d rows) ==\n", rows)
	entries := measure(benchmarks)
	return writeBenchEntries(outPath, entries)
}

// namedBenchmark pairs an operation name with its benchmark body.
type namedBenchmark struct {
	op string
	fn func(b *testing.B)
}

// measure runs the benchmarks and prints one line per operation.
func measure(benchmarks []namedBenchmark) []BenchEntry {
	entries := make([]BenchEntry, 0, len(benchmarks))
	for _, bm := range benchmarks {
		res := testing.Benchmark(bm.fn)
		entry := BenchEntry{
			Op:          bm.op,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		entries = append(entries, entry)
		fmt.Printf("%-20s %12d ns/op %10d allocs/op %12d B/op (%d iterations)\n",
			entry.Op, entry.NsPerOp, entry.AllocsPerOp, entry.BytesPerOp, entry.Iterations)
	}
	return entries
}

// writeBenchEntries merges the measured entries into outPath: operations
// already recorded there keep their position and are overwritten, new ones
// are appended, and entries of other experiments are preserved — so `-exp
// bench` and `-exp steps` can each refresh their slice of BENCH_core.json.
func writeBenchEntries(outPath string, entries []BenchEntry) error {
	if err := benchio.MergeWrite(outPath, entries); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
