// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated substrate: each experiment runs the
// pipeline at the configured scale and prints the same rows or series
// the paper reports, alongside the paper's own numbers where they are
// comparable (shape, not absolute counts — the substrate is a scaled
// simulator, DESIGN.md documents the substitution).
package experiments

import (
	"fmt"
	"io"

	"repro/internal/longitudinal"
	"repro/internal/topology"
)

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string // "table1", "fig4", ...
	Title string
	Run   func(cfg longitudinal.Config, w io.Writer) error
}

// All returns every experiment, tables first, in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: general statistics of atoms, 2004 vs 2024", Run: Table1},
		{ID: "table2", Title: "Table 2: formation distance distribution, 2004 vs 2024", Run: Table2},
		{ID: "table3", Title: "Table 3: stability of atoms, 2004 vs 2024", Run: Table3},
		{ID: "table4", Title: "Table 4: IPv4 vs IPv6 general statistics", Run: Table4},
		{ID: "table5", Title: "Table 5: abnormal BGP peers removed", Run: Table5},
		{ID: "table6", Title: "Table 6: reproduced 2002 stability vs original paper", Run: Table6},
		{ID: "table7", Title: "Table 7: prefix-filter threshold sensitivity", Run: Table7},
		{ID: "fig1", Title: "Fig 1: formation distance, method (iii) vs method (ii)", Run: Fig1},
		{ID: "fig2", Title: "Fig 2: atoms/AS and prefixes/atom distributions", Run: Fig2},
		{ID: "fig3", Title: "Fig 3: likelihood of atom/AS seen in full per update", Run: Fig3},
		{ID: "fig4", Title: "Fig 4: formation distance trend 2004-2024", Run: Fig4},
		{ID: "fig5", Title: "Fig 5: stability trend 2004-2024", Run: Fig5},
		{ID: "fig6", Title: "Fig 6: observers per atom-split event (CDF)", Run: Fig6},
		{ID: "fig7", Title: "Fig 7: daily split observer breakdown", Run: Fig7},
		{ID: "fig8", Title: "Fig 8: IPv4 vs IPv6 distributions, 2024", Run: Fig8},
		{ID: "fig9", Title: "Fig 9: IPv6 stability trend", Run: Fig9},
		{ID: "fig10", Title: "Fig 10: IPv6 update correlation, 2024", Run: Fig10},
		{ID: "fig11", Title: "Fig 11: IPv6 formation distance trend", Run: Fig11},
		{ID: "fig12", Title: "Fig 12: full-feed threshold trend", Run: Fig12},
		{ID: "fig13", Title: "Fig 13: number of full-feed peers trend", Run: Fig13},
		{ID: "fig14", Title: "Fig 14: 2002 reproduction, AS/atom distributions", Run: Fig14},
		{ID: "fig15", Title: "Fig 15: 2002 reproduction, update correlation", Run: Fig15},
		{ID: "fig16", Title: "Fig 16: long-window split observer breakdown", Run: Fig16},
		{ID: "ablation-sanitize", Title: "Ablation: §2.4 sanitization vs Afek-2002 rules on 2024 data", Run: AblationSanitize},
		{ID: "ablation-sampling", Title: "Ablation: formation-distance origin sampling cap", Run: AblationFormationSampling},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Eras used throughout.
var (
	era2002 = topology.EraOf(2002, 1)
	era2004 = topology.EraOf(2004, 1)
	era2011 = topology.EraOf(2011, 4)
	era2024 = topology.EraOf(2024, 4)
)

// trendEras samples the 2004–2024 window every two years (quick mode
// uses a sparser grid via cfg.Scale heuristics upstream).
func trendEras() []topology.Era {
	var out []topology.Era
	for y := 2004; y <= 2024; y += 2 {
		out = append(out, topology.EraOf(y, 1))
	}
	return out
}

func v6TrendEras() []topology.Era {
	var out []topology.Era
	for y := 2012; y <= 2024; y += 2 {
		out = append(out, topology.EraOf(y, 1))
	}
	return out
}

// header prints the experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// note prints an indented annotation.
func note(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "  ~ "+format+"\n", args...)
}
