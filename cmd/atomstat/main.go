// Command atomstat prints the data-sanitization diagnostics of §2.4 for
// MRT RIB archives: per-feed table sizes, full-feed inference, the
// prefix admission funnel, and the visibility-threshold sensitivity
// grid (Table 7).
//
// Usage:
//
//	atomstat [-family 4|6] [-grid] [-trace out.json] [-v] data/*.rib.mrt
//
// The shared observability flags apply (-trace, -v, -listen, -sample,
// -trace-out).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/sanitize"
	"repro/internal/textplot"
)

const tool = "atomstat"

func main() {
	var (
		family = flag.Int("family", 4, "address family: 4 or 6")
		grid   = flag.Bool("grid", false, "print the Table 7 threshold sensitivity grid")
	)
	o := cli.NewObs(tool)
	flag.Parse()
	if flag.NArg() == 0 {
		cli.Usage("atomstat [flags] <rib.mrt>...")
	}
	o.Start()
	defer o.Finish()

	lsp := o.Root.Child("load")
	sources := cli.LoadSources(tool, flag.Args())
	lsp.SetAttr("rib_archives", len(sources))
	lsp.End()

	opts := sanitize.Defaults()
	opts.Family = *family
	opts.Span = o.Root
	opts.Metrics = o.Registry
	_, rep, err := sanitize.Clean(sources, nil, opts)
	if err != nil {
		cli.Fatal(tool, err)
	}

	feeds := &textplot.Table{Title: "Feeds", Headers: []string{"vantage point", "prefixes", "dups", "priv-asn", "as-set", "loops", "full?"}}
	for _, f := range rep.Feeds {
		feeds.AddRow(f.VP.String(), fmt.Sprint(f.UniquePrefixes), fmt.Sprint(f.Duplicates),
			fmt.Sprint(f.PrivateASN), fmt.Sprint(f.ASSetDropped), fmt.Sprint(f.LoopDropped),
			fmt.Sprint(f.FullFeed))
	}
	feeds.Render(os.Stdout)

	fmt.Printf("\nFull-feed inference: max table %d, threshold %d (90%%), %d full feeds\n",
		rep.MaxPrefixCount, rep.FullFeedThreshold, rep.FullFeeds)
	fmt.Printf("Prefix funnel: %d seen -> %d admitted (length %d, <2 collectors %d, <4 peer ASes %d)\n",
		rep.PrefixesSeen, rep.PrefixesAdmitted, rep.DroppedByLength, rep.DroppedByCollector, rep.DroppedByPeerASes)
	fmt.Printf("MOAS prefixes among admitted: %d\n", rep.MOASPrefixes)
	// Sorted: map iteration order would vary run to run.
	asns := make([]uint32, 0, len(rep.RemovedPeerASes))
	for asn := range rep.RemovedPeerASes {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		fmt.Printf("removed peer AS%d: %s\n", asn, rep.RemovedPeerASes[asn])
	}

	if *grid {
		gsp := o.Root.Child("visibility_grid")
		gopts := opts
		gopts.Span = gsp // nest the sweep's second pipeline pass
		vis, err := sanitize.VisibilityIndex(sources, nil, gopts)
		if err != nil {
			cli.Fatal(tool, err)
		}
		gsp.End()
		tbl := &textplot.Table{Title: "\nTable 7 sensitivity grid", Headers: []string{"collectors \\ peers", "1", "2", "3", "4", "5"}}
		for c := 1; c <= 3; c++ {
			row := []string{fmt.Sprint(c)}
			for a := 1; a <= 5; a++ {
				row = append(row, fmt.Sprint(vis.Count(c, a)))
			}
			tbl.AddRow(row...)
		}
		tbl.Render(os.Stdout)
	}
}
