package aware_test

import (
	"fmt"
	"math/rand"
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/investing"
	"aware/internal/simulation"
	"aware/internal/stats"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation at a reduced replication count (go test -bench is about timing
// and shape, not about publication-quality confidence intervals; use
// cmd/awarebench for the full paper-scale runs). Each benchmark reports the
// headline metrics through b.ReportMetric so the regenerated series appear in
// the benchmark output and in bench_output.txt.

// benchReps is the per-configuration replication count used by the benchmarks.
const benchReps = 100

// reportSummary attaches the average FDR and power of a named procedure at the
// largest x value to the benchmark output.
func reportSummary(b *testing.B, ms []simulation.Measurement, procedure string) {
	b.Helper()
	points := simulation.FilterMeasurements(ms, procedure)
	if len(points) == 0 {
		return
	}
	last := points[len(points)-1]
	b.ReportMetric(last.AvgFDR, procedure+"_FDR")
	if last.AvgPower == last.AvgPower { // skip NaN
		b.ReportMetric(last.AvgPower, procedure+"_power")
	}
	b.ReportMetric(last.AvgDiscoveries, procedure+"_disc")
}

// BenchmarkExp1aStaticProcedures regenerates Figure 3 (static procedures,
// 75% and 100% true nulls).
func BenchmarkExp1aStaticProcedures(b *testing.B) {
	for _, null := range []float64{0.75, 1.0} {
		b.Run(fmt.Sprintf("null=%.0f%%", 100*null), func(b *testing.B) {
			var ms []simulation.Measurement
			var err error
			for i := 0; i < b.N; i++ {
				ms, err = simulation.Exp1a(simulation.Exp1aConfig{NullProportion: null, Replications: benchReps, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSummary(b, ms, "PCER")
			reportSummary(b, ms, "Bonferroni")
			reportSummary(b, ms, "BHFDR")
		})
	}
}

// BenchmarkExp1bIncrementalProcedures regenerates Figure 4 (incremental
// procedures over a growing number of hypotheses).
func BenchmarkExp1bIncrementalProcedures(b *testing.B) {
	for _, null := range []float64{0.25, 0.75, 1.0} {
		b.Run(fmt.Sprintf("null=%.0f%%", 100*null), func(b *testing.B) {
			var ms []simulation.Measurement
			var err error
			for i := 0; i < b.N; i++ {
				ms, err = simulation.Exp1b(simulation.Exp1bConfig{NullProportion: null, Replications: benchReps, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range []string{"SeqFDR", "beta-farsighted", "gamma-fixed", "delta-hopeful", "epsilon-hybrid", "psi-support"} {
				reportSummary(b, ms, name)
			}
		})
	}
}

// BenchmarkExp1cVaryingSupport regenerates Figure 5 (incremental procedures
// with 64 hypotheses over a varying sample size).
func BenchmarkExp1cVaryingSupport(b *testing.B) {
	for _, null := range []float64{0.25, 0.75} {
		b.Run(fmt.Sprintf("null=%.0f%%", 100*null), func(b *testing.B) {
			var ms []simulation.Measurement
			var err error
			for i := 0; i < b.N; i++ {
				ms, err = simulation.Exp1c(simulation.Exp1cConfig{NullProportion: null, Replications: benchReps / 2, Seed: 23})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range []string{"gamma-fixed", "psi-support", "epsilon-hybrid"} {
				reportSummary(b, ms, name)
			}
		})
	}
}

// BenchmarkExp2CensusWorkflows regenerates Figure 6 (user-study workflows on
// the census and randomized census), at a reduced scale.
func BenchmarkExp2CensusWorkflows(b *testing.B) {
	for _, randomized := range []bool{false, true} {
		name := "census"
		if randomized {
			name = "randomized"
		}
		b.Run(name, func(b *testing.B) {
			var ms []simulation.Measurement
			var err error
			for i := 0; i < b.N; i++ {
				ms, err = simulation.Exp2(simulation.Exp2Config{
					Rows:         6000,
					Hypotheses:   60,
					Randomized:   randomized,
					Replications: 3,
					Seed:         5,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, proc := range []string{"gamma-fixed", "psi-support", "epsilon-hybrid", "SeqFDR"} {
				reportSummary(b, ms, proc)
			}
		})
	}
}

// BenchmarkHoldoutPower regenerates the Section 4.1 hold-out analysis.
func BenchmarkHoldoutPower(b *testing.B) {
	var m simulation.HoldoutMeasurement
	var err error
	for i := 0; i < b.N; i++ {
		m, err = simulation.HoldoutExperiment(500, 500, 31)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.FullDataPower, "full_power")
	b.ReportMetric(m.SplitHalfPower, "half_power")
	b.ReportMetric(m.HoldoutPower, "holdout_power")
}

// BenchmarkTheorem1Subsets regenerates the Section 6 subset-FDR check.
func BenchmarkTheorem1Subsets(b *testing.B) {
	var res simulation.SubsetExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = simulation.SubsetExperiment(64, 0.75, 0.5, 500, 37)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FullFDR, "full_FDR")
	b.ReportMetric(res.SubsetFDR, "subset_FDR")
}

// --- Ablation benches for the design choices listed in DESIGN.md ---

// ablate runs Exp.1b-style streams through a single policy factory and reports
// FDR and power.
func ablate(b *testing.B, nullProportion float64, factory simulation.PolicyFactory, label string) {
	b.Helper()
	runner := simulation.InvestingRunner(label, factory)
	var ms []simulation.Measurement
	var err error
	for i := 0; i < b.N; i++ {
		ms, err = simulation.Sweep(
			[]float64{64},
			func(m float64) simulation.StreamSource {
				return func(rng *rand.Rand) (simulation.Stream, error) {
					return simulation.GenerateSynthetic(simulation.DefaultSyntheticConfig(int(m), nullProportion), rng)
				}
			},
			[]simulation.Runner{runner}, simulation.PaperAlpha, benchReps, 97)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSummary(b, ms, label)
}

// BenchmarkAblationFarsightedBeta sweeps the β parameter of β-farsighted.
func BenchmarkAblationFarsightedBeta(b *testing.B) {
	for _, beta := range []float64{0.25, 0.5, 0.9} {
		beta := beta
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			ablate(b, 0.75, func(cfg investing.Config) (investing.Policy, error) {
				return investing.NewFarsighted(beta, cfg.Alpha)
			}, fmt.Sprintf("farsighted-%.2f", beta))
		})
	}
}

// BenchmarkAblationSupportExponent sweeps the ψ exponent of ψ-support.
func BenchmarkAblationSupportExponent(b *testing.B) {
	for _, psi := range []float64{1, 2.0 / 3.0, 0.5, 1.0 / 3.0} {
		psi := psi
		b.Run(fmt.Sprintf("psi=%.2f", psi), func(b *testing.B) {
			ablate(b, 0.75, func(cfg investing.Config) (investing.Policy, error) {
				return investing.NewSupport(psi, 10, cfg.InitialWealth())
			}, fmt.Sprintf("support-%.2f", psi))
		})
	}
}

// BenchmarkAblationHybridWindow sweeps the sliding-window size of ε-hybrid.
func BenchmarkAblationHybridWindow(b *testing.B) {
	for _, window := range []int{0, 8, 16, 32} {
		window := window
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			ablate(b, 0.5, func(cfg investing.Config) (investing.Policy, error) {
				return investing.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), window)
			}, fmt.Sprintf("hybrid-w%d", window))
		})
	}
}

// BenchmarkAblationReturn compares the standard pay-out ω = α against the more
// conservative ω = α(1-α).
func BenchmarkAblationReturn(b *testing.B) {
	for _, conservative := range []bool{false, true} {
		conservative := conservative
		name := "omega=alpha"
		if conservative {
			name = "omega=alpha(1-alpha)"
		}
		b.Run(name, func(b *testing.B) {
			cfg := investing.DefaultConfig()
			if conservative {
				cfg.Omega = cfg.Alpha * (1 - cfg.Alpha)
			}
			runner := customConfigRunner{cfg: cfg, name: name}
			var ms []simulation.Measurement
			var err error
			for i := 0; i < b.N; i++ {
				ms, err = simulation.Sweep(
					[]float64{64},
					func(m float64) simulation.StreamSource {
						return func(rng *rand.Rand) (simulation.Stream, error) {
							return simulation.GenerateSynthetic(simulation.DefaultSyntheticConfig(int(m), 0.75), rng)
						}
					},
					[]simulation.Runner{runner}, cfg.Alpha, benchReps, 131)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSummary(b, ms, name)
		})
	}
}

// customConfigRunner runs γ-fixed under a non-default investing configuration
// (used by the ω ablation).
type customConfigRunner struct {
	cfg  investing.Config
	name string
}

func (r customConfigRunner) Name() string { return r.name }

func (r customConfigRunner) Run(s simulation.Stream, _ float64) ([]bool, error) {
	policy, err := investing.NewFixed(10, r.cfg.InitialWealth())
	if err != nil {
		return nil, err
	}
	inv, err := investing.NewInvestor(r.cfg, policy)
	if err != nil {
		return nil, err
	}
	return inv.Run(s.PValues, s.Contexts)
}

// --- Micro-benchmarks of the core building blocks ---

// BenchmarkInvestorTest measures the per-hypothesis cost of the α-investing
// bookkeeping itself.
func BenchmarkInvestorTest(b *testing.B) {
	cfg := investing.DefaultConfig()
	policy, err := investing.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
	if err != nil {
		b.Fatal(err)
	}
	inv, err := investing.NewInvestor(cfg, policy)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := rng.Float64()
		if i%13 == 0 {
			p /= 1000
		}
		_, err := inv.TestSimple(p)
		if err == investing.ErrExhausted {
			// Long pure-null stretches legitimately exhaust the wealth; start a
			// fresh procedure outside the timed region and keep measuring.
			b.StopTimer()
			policy, perr := investing.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
			if perr != nil {
				b.Fatal(perr)
			}
			inv, perr = investing.NewInvestor(cfg, policy)
			if perr != nil {
				b.Fatal(perr)
			}
			b.StartTimer()
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAddVisualization measures the end-to-end cost of one
// interactive step: filter the data, run the χ² test, update the gauge. The
// sub-benchmarks cover each target kind — categorical (a bar chart), bool
// and numeric (a binned histogram) — at 30k and 300k rows. Each iteration
// opens a fresh session over one shared table, as a served dataset does, so
// filters compile cold but the table's memoized population summaries are
// warm after the first iteration.
func BenchmarkSessionAddVisualization(b *testing.B) {
	targets := []struct{ kind, column string }{
		{"categorical", census.ColGender},
		{"bool", census.ColSalaryOver50K},
		{"numeric", census.ColAge},
	}
	rowCounts := []int{30000, 300000}
	tables := make(map[int]*dataset.Table, len(rowCounts))
	values := []string{"HS", "Bachelor", "Master", "PhD"}
	for _, target := range targets {
		for _, rows := range rowCounts {
			b.Run(fmt.Sprintf("%s/rows=%d", target.kind, rows), func(b *testing.B) {
				table := tables[rows]
				if table == nil {
					var err error
					if table, err = census.Generate(census.Config{Rows: rows, Seed: 1, SignalStrength: 1}); err != nil {
						b.Fatal(err)
					}
					tables[rows] = table
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					session, err := core.NewSession(table, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					_, err = session.Apply(core.AddVisualization{Target: target.column,
						Filter: dataset.Equals{Column: census.ColEducation, Value: values[i%len(values)]}})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkChiSquaredTest measures the underlying test cost on a census-sized
// contingency table.
func BenchmarkChiSquaredTest(b *testing.B) {
	table, err := census.Generate(census.Config{Rows: 30000, Seed: 1, SignalStrength: 1})
	if err != nil {
		b.Fatal(err)
	}
	crosstab, _, _, err := table.Crosstab(census.ColEducation, census.ColSalaryOver50K)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.ChiSquaredIndependence(crosstab); err != nil {
			b.Fatal(err)
		}
	}
}
