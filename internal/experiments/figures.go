package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/longitudinal"
	"repro/internal/metrics"
	"repro/internal/textplot"
	"repro/internal/topology"
)

// formationCurves prints the three Fig 1-style curves for one result.
func formationCurves(w io.Writer, title string, f *metrics.FormationResult) {
	tbl := &textplot.Table{Title: title,
		Headers: []string{"distance", "% atoms created", "% first split (d_min)", "% all split (d_max)"}}
	cumA, cumF, cumL := 0, 0, 0
	for d := 1; d <= 5; d++ {
		cumA += f.AtomsAtDistance[d]
		cumF += f.FirstSplitAtDistance[d]
		cumL += f.AllSplitAtDistance[d]
		tbl.AddRow(fmt.Sprint(d),
			textplot.Percent(float64(cumA)/float64(max(1, f.TotalAtoms))),
			textplot.Percent(float64(cumF)/float64(max(1, f.TotalOrigins))),
			textplot.Percent(float64(cumL)/float64(max(1, f.TotalOrigins))))
	}
	tbl.Render(w)
}

// Fig1 compares formation-distance methods (iii) and (ii) on the 2002
// reproduction snapshot (paper Fig 1).
func Fig1(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 1: formation distance of atoms, method (iii) vs method (ii), 2002 snapshot")
	cfg.Artifacts = false
	r := longitudinal.NewEraRun(cfg, era2002)
	atoms, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		return err
	}
	opts := metrics.DefaultFormationOptions()
	f3 := metrics.FormationDistances(atoms, opts, nil)
	opts.Method = metrics.MethodStripBeforeDistance
	f2 := metrics.FormationDistances(atoms, opts, nil)
	formationCurves(w, "method (iii): atoms from raw paths, distance in unique ASes (adopted)", f3)
	formationCurves(w, "method (ii): prepending stripped before distance", f2)
	d1iii := float64(f3.AtomsAtDistance[1]) / float64(max(1, f3.TotalAtoms))
	d1ii := float64(f2.AtomsAtDistance[1]) / float64(max(1, f2.TotalAtoms))
	note(w, "shape check (paper: method (iii) ~10 points higher at distance 1 than (ii), the prepend-split share): here %.1f%% vs %.1f%%",
		100*d1iii, 100*d1ii)
	note(w, "method (iii) distance-1 composition: single-atom origin %d, unique peer set %d, prepending %d",
		f3.D1SingleAtom, f3.D1UniquePeers, f3.D1Prepend)
	return nil
}

// distCDF prints CDF rows for two atom sets side by side.
func distCDF(w io.Writer, name string, a, b *core.AtomSet, labelA, labelB string) {
	ticks := []int{1, 2, 4, 8, 16, 32, 64, 128}
	textplot.CDF(w, fmt.Sprintf("%s — %s: atoms per AS", name, labelA), a.AtomsPerASCounts(), ticks)
	textplot.CDF(w, fmt.Sprintf("%s — %s: atoms per AS", name, labelB), b.AtomsPerASCounts(), ticks)
	textplot.CDF(w, fmt.Sprintf("%s — %s: prefixes per atom", name, labelA), a.PrefixesPerAtomCounts(), ticks)
	textplot.CDF(w, fmt.Sprintf("%s — %s: prefixes per atom", name, labelB), b.PrefixesPerAtomCounts(), ticks)
}

// Fig2 prints the 2004-vs-2024 distribution CDFs (paper Fig 2).
func Fig2(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 2: atoms per AS and prefixes per atom, 2004 vs 2024")
	r04, err := longitudinal.RunEra(cfg, era2004)
	if err != nil {
		return err
	}
	r24, err := longitudinal.RunEra(cfg, era2024)
	if err != nil {
		return err
	}
	distCDF(w, "Fig 2", r04.Atoms, r24.Atoms, "2004", "2024")
	note(w, "shape checks: 2024 right-skewed in atoms/AS (more atoms per AS) and left-skewed in prefixes/atom (smaller atoms) relative to 2004")
	return nil
}

// corrTable prints Pr_full(k) rows for one correlation result.
func corrTable(w io.Writer, title string, uc *metrics.UpdateCorrelation) {
	tbl := &textplot.Table{Title: title,
		Headers: []string{"k", "atom", "AS", "AS multi-atom", "AS all-single-atoms"}}
	for k := 2; k <= uc.MaxK; k++ {
		tbl.AddRow(fmt.Sprint(k),
			textplot.Percent(uc.Atom[k].Pr()),
			textplot.Percent(uc.AS[k].Pr()),
			textplot.Percent(uc.ASMultiAtom[k].Pr()),
			textplot.Percent(uc.ASSinglePrefixAtoms[k].Pr()))
	}
	tbl.Render(w)
}

// Fig3 prints the update-correlation comparison (paper Fig 3).
func Fig3(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 3: likelihood of atom/AS seen in full within one update, 2004 vs 2024")
	r04, err := longitudinal.RunEra(cfg, era2004)
	if err != nil {
		return err
	}
	r24, err := longitudinal.RunEra(cfg, era2024)
	if err != nil {
		return err
	}
	corrTable(w, fmt.Sprintf("Year 2004 (%d update records)", r04.Corr.Records), r04.Corr)
	corrTable(w, fmt.Sprintf("Year 2024 (%d update records)", r24.Corr.Records), r24.Corr)
	note(w, "shape checks: atom curve above AS curve; all-single-atom ASes near zero (paper's coral dotted line)")
	return nil
}

// Fig4 plots the formation-distance trend (paper Fig 4).
func Fig4(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 4: % atoms created at each distance over 2004-2024")
	return formationTrend(cfg, w, trendEras())
}

func formationTrend(cfg longitudinal.Config, w io.Writer, eras []topology.Era) error {
	points, err := longitudinal.RunTrend(cfg, eras)
	if err != nil {
		return err
	}
	ch := &textplot.Chart{Title: "solid: all ASes (cumulative % at distance <= d)", FixedY: true, YMin: 0, YMax: 100}
	chM := &textplot.Chart{Title: "dashed equivalent: excluding single-atom ASes", FixedY: true, YMin: 0, YMax: 100}
	for d := 1; d <= 4; d++ {
		var s, sm textplot.Series
		s.Name = fmt.Sprintf("d<=%d", d)
		sm.Name = s.Name
		for _, p := range points {
			cum, cumM := 0.0, 0.0
			for dd := 1; dd <= d; dd++ {
				cum += p.FormationShare[dd]
				cumM += p.FormationShareMulti[dd]
			}
			x := float64(p.Era.Year()) + float64(p.Era.Quarter()-1)/4
			s.Points = append(s.Points, textplot.Point{X: x, Y: 100 * cum})
			sm.Points = append(sm.Points, textplot.Point{X: x, Y: 100 * cumM})
		}
		ch.Series = append(ch.Series, s)
		chM.Series = append(chM.Series, sm)
	}
	ch.Render(w)
	chM.Render(w)
	first, last := points[0], points[len(points)-1]
	note(w, "shape checks: distance-1 share falls (%.0f%% -> %.0f%%); distance<=2 cumulative falls as atoms form farther from the origin",
		100*first.FormationShare[1], 100*last.FormationShare[1])
	return nil
}

// Fig5 plots the stability trend (paper Fig 5).
func Fig5(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 5: short- and long-term stability over 2004-2024")
	return stabilityTrend(cfg, w, trendEras())
}

func stabilityTrend(cfg longitudinal.Config, w io.Writer, eras []topology.Era) error {
	points, err := longitudinal.RunTrend(cfg, eras)
	if err != nil {
		return err
	}
	ch := &textplot.Chart{Title: "stability (%)", FixedY: true, YMin: 40, YMax: 100}
	mk := func(name string, get func(longitudinal.TrendPoint) float64) {
		var s textplot.Series
		s.Name = name
		for _, p := range points {
			x := float64(p.Era.Year()) + float64(p.Era.Quarter()-1)/4
			s.Points = append(s.Points, textplot.Point{X: x, Y: 100 * get(p)})
		}
		ch.Series = append(ch.Series, s)
	}
	mk("CAM 8h", func(p longitudinal.TrendPoint) float64 { return p.CAM8h })
	mk("MPM 8h", func(p longitudinal.TrendPoint) float64 { return p.MPM8h })
	mk("CAM 1w", func(p longitudinal.TrendPoint) float64 { return p.CAM1w })
	mk("MPM 1w", func(p longitudinal.TrendPoint) float64 { return p.MPM1w })
	ch.Render(w)
	note(w, "shape checks: 8h curves above 1w curves; MPM above CAM; consistently high with a late-era dip")
	return nil
}

// Fig6 prints the split-observer CDF (paper Fig 6).
func Fig6(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 6: number of VPs observing each atom-split event (CDF)")
	study, err := longitudinal.RunSplits(cfg, topology.EraOf(2018, 1), 20)
	if err != nil {
		return err
	}
	tbl := &textplot.Table{Headers: []string{"observers <= n", "share of events", "paper"}}
	paper := map[int]string{1: "~60%", 3: "~80%"}
	for _, n := range []int{1, 2, 3, 5, 10, 20} {
		tbl.AddRow(fmt.Sprint(n), textplot.Percent(study.CDF.FractionAtMost(n)), paper[n])
	}
	tbl.Render(w)
	note(w, "%d split events over 20 days; shape check: most splits visible to very few VPs", study.CDF.Total)
	return nil
}

// Fig7 prints the per-day split breakdown (paper Fig 7).
func Fig7(cfg longitudinal.Config, w io.Writer) error {
	return splitBreakdown(cfg, w, 20, "Fig 7: daily split observer breakdown (20 days)")
}

// Fig16 is the long-window version (paper Fig 16).
func Fig16(cfg longitudinal.Config, w io.Writer) error {
	return splitBreakdown(cfg, w, 60, "Fig 16: split observer breakdown, long window (60 days)")
}

func splitBreakdown(cfg longitudinal.Config, w io.Writer, days int, title string) error {
	header(w, title)
	study, err := longitudinal.RunSplits(cfg, topology.EraOf(2018, 1), days)
	if err != nil {
		return err
	}
	tbl := &textplot.Table{Headers: []string{"day", "events", "multi-VP", "single-VP", "top VP", "top", "2nd", "rest"}}
	for _, d := range study.Days {
		if d.Events == 0 {
			continue
		}
		tbl.AddRow(fmt.Sprint(d.Day), fmt.Sprint(d.Events), fmt.Sprint(d.MultiObserver),
			fmt.Sprint(d.SingleObserver), d.TopVP.String(),
			fmt.Sprint(d.TopVPEvents), fmt.Sprint(d.SecondVPEvents), fmt.Sprint(d.OtherSingleVPEvents))
	}
	tbl.Render(w)
	// Aggregate shape check: is one VP responsible for most single-VP events?
	topShare := 0
	single := 0
	for _, d := range study.Days {
		topShare += d.TopVPEvents
		single += d.SingleObserver
	}
	if single > 0 {
		note(w, "shape check (paper: splits driven by one single VP): top VP holds %.0f%% of single-VP events",
			100*float64(topShare)/float64(single))
	}
	return nil
}

// Fig8 prints the v4/v6 distribution comparison (paper Fig 8).
func Fig8(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 8: atoms per AS and prefixes per atom, IPv4 vs IPv6 (2024)")
	v4cfg := cfg
	v4cfg.Family = 4
	r4, err := longitudinal.RunEra(v4cfg, era2024)
	if err != nil {
		return err
	}
	v6cfg := cfg
	v6cfg.Family = 6
	r6, err := longitudinal.RunEra(v6cfg, era2024)
	if err != nil {
		return err
	}
	distCDF(w, "Fig 8", r4.Atoms, r6.Atoms, "IPv4", "IPv6")
	note(w, "shape checks: IPv6 has fewer atoms per AS (FITI-style single-prefix ASes) and a similar prefixes-per-atom distribution")
	return nil
}

// Fig9 plots the v6 stability trend (paper Fig 9).
func Fig9(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 9: IPv6 stability trend")
	cfg.Family = 6
	return stabilityTrend(cfg, w, v6TrendEras())
}

// Fig10 prints the v6 update correlation (paper Fig 10).
func Fig10(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 10: IPv6 likelihood of atom/AS seen in full within one update (2024)")
	cfg.Family = 6
	r, err := longitudinal.RunEra(cfg, era2024)
	if err != nil {
		return err
	}
	corrTable(w, fmt.Sprintf("IPv6 2024 (%d update records)", r.Corr.Records), r.Corr)
	note(w, "shape check: atom curve consistently above the AS curve, as in IPv4")
	return nil
}

// Fig11 plots the v6 formation-distance trend (paper Fig 11).
func Fig11(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 11: IPv6 formation distance trend")
	cfg.Family = 6
	return formationTrend(cfg, w, v6TrendEras())
}

// Fig12 plots the full-feed threshold trend (paper Fig 12).
func Fig12(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 12: full-feed threshold (90% of max table size) over time")
	points, err := longitudinal.RunTrend(cfg, trendEras())
	if err != nil {
		return err
	}
	ch := &textplot.Chart{Title: "threshold (prefixes)"}
	var s textplot.Series
	s.Name = "threshold"
	for _, p := range points {
		s.Points = append(s.Points, textplot.Point{X: float64(p.Era.Year()), Y: float64(p.FullFeedThreshold)})
	}
	ch.Series = append(ch.Series, s)
	ch.Render(w)
	note(w, "paper: 100K -> 1M; here the threshold grows ×%.1f over the window (scaled world)",
		float64(points[len(points)-1].FullFeedThreshold)/float64(max(1, points[0].FullFeedThreshold)))
	return nil
}

// Fig13 plots the full-feed peer count trend (paper Fig 13).
func Fig13(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 13: number of full-feed peers over time")
	points, err := longitudinal.RunTrend(cfg, trendEras())
	if err != nil {
		return err
	}
	ch := &textplot.Chart{Title: "full-feed peers"}
	var s textplot.Series
	s.Name = "full feeds"
	for _, p := range points {
		s.Points = append(s.Points, textplot.Point{X: float64(p.Era.Year()), Y: float64(p.FullFeeds)})
	}
	ch.Series = append(ch.Series, s)
	ch.Render(w)
	note(w, "paper: <50 in 2004 to ~600 in 2024; here %d -> %d (VP census scales with -scale^0.4)",
		points[0].FullFeeds, points[len(points)-1].FullFeeds)
	return nil
}

// Fig14 prints the 2002 reproduction distributions (paper Fig 14).
func Fig14(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 14: 2002 reproduction — AS and atom distributions")
	cfg.Artifacts = false
	r, err := longitudinal.RunEra(cfg, era2002)
	if err != nil {
		return err
	}
	ticks := []int{1, 2, 4, 8, 16, 32, 64}
	textplot.CDF(w, "atoms per AS", r.Atoms.AtomsPerASCounts(), ticks)
	textplot.CDF(w, "prefixes per atom", r.Atoms.PrefixesPerAtomCounts(), ticks)
	textplot.CDF(w, "prefixes per AS", r.Atoms.PrefixesPerASCounts(), ticks)
	st := r.Stats
	note(w, "summary: %d ASes, %d prefixes, %d atoms — paper reproduced 12.5K ASes / 115K prefixes / 26K atoms with 13 VPs (ratios: atoms/AS %.2f vs 2.08, prefixes/atom %.2f vs 4.42)",
		st.ASes, st.Prefixes, st.Atoms,
		float64(st.Atoms)/float64(max(1, st.ASes)), float64(st.Prefixes)/float64(max(1, st.Atoms)))
	return nil
}

// Fig15 prints the 2002 update correlation (paper Fig 15).
func Fig15(cfg longitudinal.Config, w io.Writer) error {
	header(w, "Fig 15: 2002 reproduction — update correlation")
	cfg.Artifacts = false
	r := longitudinal.NewEraRun(cfg, era2002)
	atoms, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		return err
	}
	// A longer window stabilizes small-scale statistics (the paper used
	// 4 hours against the full-size Internet).
	records, _, err := r.Updates(longitudinal.OffsetBase, longitudinal.OffsetBase+1.0)
	if err != nil {
		return err
	}
	corr := metrics.CorrelateUpdates(atoms, records, 7, nil)
	corrTable(w, fmt.Sprintf("Year 2002 (%d update records, 24h window)", len(records)), corr)
	note(w, "shape check: atom curve above AS curve, matching Afek et al.'s Fig and the paper's Fig 15")
	return nil
}
