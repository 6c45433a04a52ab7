// Census walks through the exact exploration session of Figure 1 / Section
// 2.4 of the paper: Eve explores a census dataset, AWARE turns her
// visualizations into default hypotheses m1, m1', m2, m3 and she finally
// overrides the last default with an explicit t-test (m4').
//
// Run with:
//
//	go run ./examples/census
package main

import (
	"fmt"
	"log"

	"aware"
)

func main() {
	table, err := aware.GenerateCensus(aware.CensusConfig{Rows: 30000, Seed: 1, SignalStrength: 1})
	if err != nil {
		log.Fatal(err)
	}
	session, err := aware.NewSession(table, aware.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Step A — gender over the whole dataset. Rule 1: descriptive, no
	// hypothesis.
	stepA, err := session.Apply(aware.AddVisualization{Target: "gender"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step A:", stepA.Visualization.Describe(), "(descriptive, no hypothesis)")

	// Step B — gender filtered to salary > 50k. Rule 2 creates m1: "the high
	// salary class has the same gender distribution as the whole dataset".
	rich := aware.Equals{Column: "salary_over_50k", Value: "true"}
	stepB, err := session.Apply(aware.AddVisualization{Target: "gender", Filter: rich})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step B:", stepB.Hypothesis.Summary())

	// Step C — gender filtered to the complement, placed next to B. Rule 3
	// creates m1' ("the two gender distributions differ") and supersedes m1.
	stepC, err := session.Apply(aware.AddVisualization{Target: "gender", Filter: aware.Not{Inner: rich}})
	if err != nil {
		log.Fatal(err)
	}
	m1prime, err := session.Apply(aware.CompareVisualizations{A: stepB.Visualization.ID, B: stepC.Visualization.ID})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step C:", m1prime.Hypothesis.Summary())

	// Step D — marital status of PhDs: hypothesis m2.
	phd := aware.Equals{Column: "education", Value: "PhD"}
	m2, err := session.Apply(aware.AddVisualization{Target: "marital_status", Filter: phd})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step D:", m2.Hypothesis.Summary())

	// Step E — salary of unmarried PhDs: hypothesis m3.
	phdSingle := aware.And{Terms: []aware.Predicate{phd, aware.Equals{Column: "marital_status", Value: "Never-Married"}}}
	m3, err := session.Apply(aware.AddVisualization{Target: "salary_over_50k", Filter: phdSingle})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step E:", m3.Hypothesis.Summary())

	// Step F — the user compares the age distribution of high and low earners
	// within the chain, then overrides the default with a t-test on the mean
	// age (m4 -> m4').
	chainRich := aware.And{Terms: []aware.Predicate{phdSingle, rich}}
	chainPoor := aware.And{Terms: []aware.Predicate{phdSingle, aware.Not{Inner: rich}}}
	vizRich, err := session.Apply(aware.AddVisualization{Target: "age", Filter: chainRich})
	if err != nil {
		log.Fatal(err)
	}
	vizPoor, err := session.Apply(aware.AddVisualization{Target: "age", Filter: chainPoor})
	if err != nil {
		log.Fatal(err)
	}
	m4prime, err := session.Apply(aware.CompareMeans{Attribute: "age", A: vizRich.Visualization.ID, B: vizPoor.Visualization.ID})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step F:", m4prime.Hypothesis.Summary())

	// Eve decides the marital-status chart (step D) was only a stepping stone
	// and removes its hypothesis, then stars her headline findings.
	for _, step := range []aware.Step{
		aware.DeclareDescriptive{Visualization: 4},
		aware.Star{Hypothesis: m1prime.Hypothesis.ID, Starred: true},
		aware.Star{Hypothesis: m4prime.Hypothesis.ID, Starred: true},
	} {
		if _, err := session.Apply(step); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nFinal risk gauge:")
	fmt.Println(session.Gauge().Render())
	fmt.Println("Important (starred) discoveries, FDR-safe to report by Theorem 1:")
	for _, h := range session.ImportantDiscoveries() {
		fmt.Println(" ", h.Summary())
	}
}
