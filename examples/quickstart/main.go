// Quickstart: simulate a small Internet, collect BGP snapshots the way
// RIPE RIS / RouteViews would, sanitize the data with the paper's §2.4
// pipeline, and compute policy atoms.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

func main() {
	// 1. A deterministic miniature Internet, as of 2024 Q4.
	params := topology.DefaultParams(42)
	params.Scale = 0.005 // ~0.5% of the real Internet
	graph := topology.Generate(params, topology.EraOf(2024, 4))
	v4, v6 := graph.TotalPrefixes()
	fmt.Printf("world: %d ASes, %d IPv4 + %d IPv6 prefixes, %d policy groups\n",
		graph.NumASes(), v4, v6, len(graph.Groups))

	// 2. Collector infrastructure: full- and partial-feed peers.
	infra := collector.BuildInfra(graph, collector.Config{Seed: 1})
	fmt.Printf("collectors: %d, distinct full-feed peer ASes: %d\n",
		len(infra.Collectors), len(infra.FullFeedASNs()))

	// 3. Every peer's routing table (the fast in-memory path; BuildRIBs
	// produces the identical data as RFC 6396 MRT archives).
	feeds := collector.BuildFeeds(graph, infra, nil, collector.EpochOf(graph.Era))

	// 4. The paper's sanitization: full-feed inference, abnormal-peer
	// removal, prefix-length and visibility filters.
	snap, report, err := sanitize.CleanFeeds(feeds, nil, sanitize.Defaults())
	if err != nil {
		panic(err)
	}
	fmt.Printf("sanitized: %d vantage points, %d/%d prefixes admitted\n",
		len(snap.VPs), report.PrefixesAdmitted, report.PrefixesSeen)

	// 5. Policy atoms: groups of prefixes sharing the same AS path at
	// every vantage point.
	atoms := core.ComputeAtoms(snap, nil, 1)
	stats := atoms.Stats()
	fmt.Printf("atoms: %d across %d ASes (mean size %.2f, largest %d, single-prefix %.1f%%)\n",
		stats.Atoms, stats.ASes, stats.MeanAtomSize, stats.LargestAtom,
		100*float64(stats.SinglePrefixAtoms)/float64(stats.Atoms))

	// Peek inside the largest atom.
	best := 0
	for i := range atoms.Atoms {
		if atoms.Atoms[i].Size() > atoms.Atoms[best].Size() {
			best = i
		}
	}
	a := &atoms.Atoms[best]
	fmt.Printf("\nlargest atom: %d prefixes originated by AS%d, e.g.:\n", a.Size(), a.Origin)
	for i, p := range atoms.PrefixSet(best) {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %v\n", p)
	}
	for v := range snap.VPs {
		if seq := snap.Paths.Seq(a.Vector[v]); seq != nil {
			fmt.Printf("path at %v: %v\n", snap.VPs[v], seq)
			break
		}
	}
}
