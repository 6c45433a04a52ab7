// Quickstart: open an AWARE session over the synthetic census, create a few
// visualizations, and read the risk gauge.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aware"
)

func main() {
	// 1. Load data. Any aware.Table works; here we use the built-in synthetic
	//    census that mirrors the paper's evaluation dataset.
	table, err := aware.GenerateCensus(aware.CensusConfig{Rows: 20000, Seed: 1, SignalStrength: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Open a session. The default configuration controls the marginal
	//    false discovery rate at 5% with the ε-hybrid investing rule.
	session, err := aware.NewSession(table, aware.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. An unfiltered chart is descriptive: no hypothesis, no α-wealth spent
	//    (heuristic rule 1).
	res, err := session.Apply(aware.AddVisualization{Target: "gender"})
	if err != nil {
		log.Fatal(err)
	}
	bars, err := res.Visualization.Histogram(table)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gender distribution (descriptive):")
	for _, b := range bars {
		fmt.Printf("  %-8s %d\n", b.Value, b.Count)
	}

	// 4. A filtered chart becomes a default hypothesis: "the filter makes no
	//    difference" (heuristic rule 2). AWARE tests it immediately through
	//    the α-investing procedure and reports whether it is a discovery.
	res, err = session.Apply(aware.AddVisualization{Target: "gender", Filter: aware.Equals{Column: "salary_over_50k", Value: "true"}})
	if err != nil {
		log.Fatal(err)
	}
	hyp := res.Hypothesis
	fmt.Println("\ndefault hypothesis for the filtered chart:")
	fmt.Println(" ", hyp.Summary())
	fmt.Printf("  need %.1fx the current data to flip this decision (n_H1 annotation)\n", hyp.DataMultiplier)

	// 5. Mark it as an important discovery; by Theorem 1 the starred subset
	//    keeps the same FDR guarantee.
	if _, err := session.Apply(aware.Star{Hypothesis: hyp.ID, Starred: true}); err != nil {
		log.Fatal(err)
	}

	// 6. The risk gauge summarizes the session: control level, remaining
	//    α-wealth, and every tracked hypothesis.
	fmt.Println("\n" + session.Gauge().Render())
}
