// Vantage-point selection: detect unreliable VPs from atom-split
// observations (the paper's §4.4.1 and §7.1). Most atom splits are
// visible at very few VPs; tracking which VP keeps "breaking" atoms
// identifies feeds whose local policy churn would otherwise masquerade
// as network-wide events. The ranking is internal/vptrust's.
//
//	go run ./examples/vpselect
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/longitudinal"
	"repro/internal/textplot"
	"repro/internal/topology"
	"repro/internal/vptrust"
)

func main() {
	cfg := longitudinal.DefaultConfig(42)
	cfg.Scale = 0.005

	const days = 14
	fmt.Printf("processing %d daily snapshots around 2018Q1...\n", days+2)
	study, err := longitudinal.RunSplits(cfg, topology.EraOf(2018, 1), days)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("\n%d split events; observer CDF:\n", study.CDF.Total)
	for _, n := range []int{1, 2, 3, 5, 10} {
		fmt.Printf("  <=%2d VPs: %s\n", n, textplot.Percent(study.CDF.FractionAtMost(n)))
	}
	fmt.Println("(paper: ~60% of events visible to one VP, ~80% to at most three)")

	// Rank VPs by how many split events each one alone observed (§7.1).
	rep := vptrust.Analyze(study.Events)
	tbl := &textplot.Table{Title: "\nVPs ranked by single-observer split events",
		Headers: []string{"vantage point", "events", "share of single-VP splits"}}
	for _, s := range rep.Scores[:min(5, len(rep.Scores))] {
		tbl.AddRow(s.VP.String(), fmt.Sprint(s.SoloSplits),
			textplot.Percent(float64(s.SoloSplits)/float64(max(1, rep.SoloEvents))))
	}
	tbl.Render(os.Stdout)
	if bad := rep.Unreliable(3); len(bad) > 0 {
		vps := make([]string, len(bad))
		for i, s := range bad {
			vps[i] = s.VP.String()
		}
		fmt.Printf("\nrecommendation: for global routing-policy studies, exclude the %d VPs whose\n", len(bad))
		fmt.Println("solo splits exceed 3x the median (vptrust.Unreliable) —")
		fmt.Printf("  %s\n", strings.Join(vps, ", "))
		fmt.Println("their local policy churn dominates the split signal; for coverage-maximizing")
		fmt.Println("uses (probing per atom instead of per prefix), keep every VP.")
	}
}
