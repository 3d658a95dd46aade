// Command atomize computes policy atoms from MRT RIB archives (such as
// those gensim writes, or any RFC 6396 TABLE_DUMP_V2 dump) and prints
// the general statistics of Tables 1/4.
//
// Usage:
//
//	atomize [-family 4|6] [-afek2002] [-updates glob] [-replay] [-workers n] [-trace out.json] [-v] data/*.rib.mrt
//
// The collector name for each archive is derived from the file name
// (everything before the first dot). -workers bounds the worker pool
// for atom grouping (default one per CPU, 1 = sequential); output is
// identical at any value. Update archives, when given, feed
// the abnormal-peer detection (§A8.3) before atom computation; archives
// that match the glob but decode zero elements are reported, since a
// bad glob would otherwise silently disable the detection.
//
// -replay (requires -updates) churn-replays the update archives into
// the snapshot through the incremental core.AtomIndex: every
// announce/withdraw re-buckets just the touched prefix row, deltas
// apply in the stream's serve order, and the post-replay atom
// statistics are printed next to the replay accounting.
// -replay-verify additionally recomputes atoms from scratch on the
// final matrix and fails loudly if the incrementally maintained
// partition differs — the CLI face of the differential harness.
//
// -trace writes a JSON run report (stage span tree + stream/sanitize
// counters); -v prints the same report as a text tree on stderr;
// -cpuprofile / -memprofile capture pprof profiles. The live flags
// work here too: -listen serves /metrics, /healthz, /runreport and
// pprof while the run lasts, -sample feeds runtime health into the
// registry, and -trace-out writes a Perfetto-loadable trace on exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bgpstream"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/sanitize"
	"repro/internal/textplot"
)

const tool = "atomize"

func main() {
	var (
		family    = flag.Int("family", 4, "address family: 4 or 6")
		afek      = flag.Bool("afek2002", false, "use Afek et al.'s 2002 methodology (all prefixes, no filters)")
		updates   = flag.String("updates", "", "glob of update archives for abnormal-peer detection")
		formation = flag.Bool("formation", false, "also print the formation-distance distribution")
		replayOn  = flag.Bool("replay", false, "churn-replay the -updates archives through the incremental atom index")
		replayVfy = flag.Bool("replay-verify", false, "after -replay, recompute atoms from scratch and fail on any difference")
	)
	workers := cli.NewWorkers()
	o := cli.NewObs(tool)
	flag.Parse()
	if flag.NArg() == 0 {
		cli.Usage("atomize [flags] <rib.mrt>...")
	}
	o.Start()
	defer o.Finish()

	lsp := o.Root.Child("load")
	sources := cli.LoadSources(tool, flag.Args())
	lsp.SetAttr("rib_archives", len(sources))
	lsp.End()

	if *replayOn && *updates == "" {
		cli.Fatal(tool, fmt.Errorf("-replay requires -updates (the archives to replay)"))
	}
	var warnings []bgpstream.Warning
	var flaps map[uint32]int
	var quarantined []string
	var updSources []bgpstream.Source
	if *updates != "" {
		usp := o.Root.Child("updates")
		paths, err := filepath.Glob(*updates)
		if err != nil {
			cli.Fatal(tool, err)
		}
		if len(paths) == 0 {
			fmt.Fprintf(os.Stderr, "%s: warning: -updates glob %q matched no files; abnormal-peer detection disabled\n", tool, *updates)
			o.Registry.Counter("atomize.empty_update_archives").Inc()
		}
		// Byte-backed sources are reusable across streams: the same
		// slice feeds both the abnormal-peer scan and -replay.
		updSources = cli.LoadSources(tool, paths)
		us := bgpstream.NewStream(nil, updSources...)
		us.SetMetrics(o.Registry)
		if _, err := us.All(); err != nil {
			cli.Fatal(tool, err)
		}
		warnings = us.Warnings()
		flaps = us.StateFlaps()
		quarantined = us.Quarantined()
		for _, name := range quarantined {
			fmt.Fprintf(os.Stderr, "%s: warning: update archive %q quarantined (degradation budget exceeded)\n", tool, name)
		}
		// An archive that matched the glob but decoded nothing
		// contributes no warnings — and therefore silently weakens the
		// §A8.3 abnormal-peer detection. Surface it.
		empty := 0
		for collector, n := range us.SourceElemCounts() {
			if n == 0 {
				empty++
				fmt.Fprintf(os.Stderr, "%s: warning: update archive %q decoded zero elements\n", tool, collector)
				o.Registry.Counter("atomize.empty_update_archives").Inc()
			}
		}
		usp.SetAttr("archives", len(paths))
		usp.SetAttr("warnings", len(warnings))
		usp.SetAttr("empty_archives", empty)
		usp.End()
	}

	opts := sanitize.Defaults()
	if *afek {
		opts = sanitize.Afek2002()
	}
	opts.Family = *family
	opts.Span = o.Root
	opts.Metrics = o.Registry
	opts.SessionFlaps = flaps
	if len(quarantined) > 0 {
		opts.QuarantinedCollectors = map[string]bool{}
		for _, name := range quarantined {
			opts.QuarantinedCollectors[name] = true
		}
	}
	snap, rep, err := sanitize.Clean(sources, warnings, opts)
	if err != nil {
		cli.Fatal(tool, err)
	}
	atoms := core.ComputeAtoms(snap, o.Root, *workers)

	ssp := o.Root.Child("stats")
	st := atoms.Stats()
	ssp.End()

	tbl := &textplot.Table{Title: "Policy atom statistics", Headers: []string{"Metric", "Value"}}
	tbl.AddRow("Vantage points", fmt.Sprint(len(snap.VPs)))
	tbl.AddRow("Full feeds", fmt.Sprint(rep.FullFeeds))
	tbl.AddRow("Prefixes admitted", fmt.Sprintf("%d (of %d seen)", rep.PrefixesAdmitted, rep.PrefixesSeen))
	tbl.AddRow("Prefixes", fmt.Sprint(st.Prefixes))
	tbl.AddRow("ASes", fmt.Sprint(st.ASes))
	tbl.AddRow("Atoms", fmt.Sprint(st.Atoms))
	tbl.AddRow("Single-atom ASes", fmt.Sprintf("%d (%.1f%%)", st.SingleAtomASes, 100*float64(st.SingleAtomASes)/float64(max(1, st.ASes))))
	tbl.AddRow("Single-prefix atoms", fmt.Sprintf("%d (%.1f%%)", st.SinglePrefixAtoms, 100*float64(st.SinglePrefixAtoms)/float64(max(1, st.Atoms))))
	tbl.AddRow("Mean atom size", fmt.Sprintf("%.2f", st.MeanAtomSize))
	tbl.AddRow("99th pct atom size", fmt.Sprint(st.P99AtomSize))
	tbl.AddRow("Largest atom", fmt.Sprint(st.LargestAtom))
	tbl.AddRow("MOAS prefixes", fmt.Sprintf("%d (%.2f%%)", st.MOASPrefixes, 100*float64(st.MOASPrefixes)/float64(max(1, st.Prefixes))))
	if len(rep.QuarantinedCollectors) > 0 {
		tbl.AddRow("Quarantined collectors", fmt.Sprintf("%d (%d feeds)", len(rep.QuarantinedCollectors), rep.QuarantinedFeeds))
	}
	tbl.Render(os.Stdout)

	if len(rep.RemovedPeerASes) > 0 {
		fmt.Println("\nRemoved abnormal peer ASes:")
		// Sorted: map iteration order would vary run to run.
		asns := make([]uint32, 0, len(rep.RemovedPeerASes))
		for asn := range rep.RemovedPeerASes {
			asns = append(asns, asn)
		}
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		for _, asn := range asns {
			fmt.Printf("  AS%-8d %s\n", asn, rep.RemovedPeerASes[asn])
		}
	}
	if *formation {
		res := metrics.FormationDistances(atoms, metrics.DefaultFormationOptions(), o.Root)
		ftbl := &textplot.Table{Title: "\nFormation distances", Headers: []string{"distance", "atoms", "share"}}
		for d := 1; d < len(res.AtomsAtDistance); d++ {
			if res.AtomsAtDistance[d] == 0 {
				continue
			}
			ftbl.AddRow(fmt.Sprint(d), fmt.Sprint(res.AtomsAtDistance[d]),
				textplot.Percent(float64(res.AtomsAtDistance[d])/float64(max(1, res.TotalAtoms))))
		}
		ftbl.Render(os.Stdout)
	}

	if *replayOn {
		ix := core.NewAtomIndex(snap)
		rst, err := replay.Run(ix, updSources, replay.Options{
			Metrics:  o.Registry,
			Span:     o.Root,
			Progress: o.Progress,
		})
		if err != nil {
			cli.Fatal(tool, err)
		}
		for _, name := range rst.Quarantined {
			fmt.Fprintf(os.Stderr, "%s: warning: replay source %q quarantined (degradation budget exceeded)\n", tool, name)
		}
		rtbl := &textplot.Table{Title: "\nChurn replay", Headers: []string{"Metric", "Value"}}
		rtbl.AddRow("Elements", fmt.Sprint(rst.Elems))
		rtbl.AddRow("Deltas applied", fmt.Sprint(rst.Applied))
		rtbl.AddRow("Duplicate no-ops", fmt.Sprint(rst.NoOps))
		rtbl.AddRow("Atoms created", fmt.Sprint(rst.Created))
		rtbl.AddRow("Atoms retired", fmt.Sprint(rst.Retired))
		rtbl.AddRow("Skipped (prefix not admitted)", fmt.Sprint(rst.SkippedPrefix))
		rtbl.AddRow("Skipped (peer not a VP)", fmt.Sprint(rst.SkippedVP))
		rtbl.AddRow("Skipped (unusable path)", fmt.Sprint(rst.SkippedUnusable))
		rtbl.AddRow("Skipped (non-route element)", fmt.Sprint(rst.SkippedType))
		rtbl.AddRow("Stream warnings", fmt.Sprint(rst.Warnings))
		rtbl.AddRow("Atoms before replay", fmt.Sprint(st.Atoms))
		rtbl.AddRow("Atoms after replay", fmt.Sprint(ix.AtomCount()))
		rtbl.Render(os.Stdout)

		if *replayVfy {
			vsp := o.Root.Child("replay_verify")
			inc := ix.Materialize(*workers)
			bat := core.ComputeAtoms(snap, nil, *workers)
			vsp.End()
			if !sameAtoms(inc, bat) {
				cli.Fatal(tool, fmt.Errorf("replay verify: incremental partition differs from batch recompute on the final snapshot"))
			}
			fmt.Println("\nReplay verify: incremental == batch on the final snapshot")
		}
	}
}

// sameAtoms reports whether two atom sets over the same snapshot (and
// hence the same intern table, so raw IDs are comparable) describe the
// same partition.
func sameAtoms(a, b *core.AtomSet) bool {
	if len(a.Atoms) != len(b.Atoms) || len(a.ByPrefix) != len(b.ByPrefix) {
		return false
	}
	for i := range a.ByPrefix {
		if a.ByPrefix[i] != b.ByPrefix[i] {
			return false
		}
	}
	for i := range a.Atoms {
		x, y := &a.Atoms[i], &b.Atoms[i]
		if x.ID != y.ID || x.Origin != y.Origin || x.MOASConflict != y.MOASConflict ||
			len(x.Prefixes) != len(y.Prefixes) || len(x.Vector) != len(y.Vector) {
			return false
		}
		for j := range x.Prefixes {
			if x.Prefixes[j] != y.Prefixes[j] {
				return false
			}
		}
		for j := range x.Vector {
			if x.Vector[j] != y.Vector[j] {
				return false
			}
		}
	}
	return true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
