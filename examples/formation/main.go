// Formation-distance walkthrough: a hand-built topology whose atoms
// split at known distances demonstrates each mechanism the paper
// describes — origin prepending (distance 1), origin selective announce
// (distance 2), and transit selective export (distance 3) — and shows
// how the three prepending-handling methods of §3.4.2 disagree.
//
//	go run ./examples/formation
package main

import (
	"fmt"
	"net/netip"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/textplot"
	"repro/internal/topology"
)

func main() {
	// Topology: two Tier-1s peering; transits T1(11),T2(12) under A;
	// T3(13) under B. The origin (100) is a customer of 11 and 12.
	// Vantage points 21, 22, 23 hang under each transit.
	ases := []*topology.AS{
		{ASN: 1, Tier: topology.TierClique, Peers: []uint32{2}},
		{ASN: 2, Tier: topology.TierClique, Peers: []uint32{1}},
		{ASN: 11, Tier: topology.TierTransit, Providers: []uint32{1}},
		{ASN: 12, Tier: topology.TierTransit, Providers: []uint32{1}},
		{ASN: 13, Tier: topology.TierTransit, Providers: []uint32{2}},
		{ASN: 21, Tier: topology.TierStub, Providers: []uint32{11}},
		{ASN: 22, Tier: topology.TierStub, Providers: []uint32{12}},
		{ASN: 23, Tier: topology.TierStub, Providers: []uint32{13}},
		{ASN: 100, Tier: topology.TierStub, Providers: []uint32{11, 12}},
	}
	pfx := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
	}
	groups := []*topology.PolicyGroup{
		// Group 0: the baseline — announced to both providers.
		{ID: 0, Origin: 100, Prefixes: []netip.Prefix{pfx(0), pfx(1)},
			Announce: map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}},
		// Group 1: same announce set, origin prepends 2× toward 11 —
		// method (iii) resolves this as a distance-1 split.
		{ID: 1, Origin: 100, Prefixes: []netip.Prefix{pfx(2)},
			Announce: map[uint32]topology.AnnouncePolicy{11: {Prepend: 2}, 12: {}}},
		// Group 2: selective announce (only to 12) — distance-2 split.
		{ID: 2, Origin: 100, Prefixes: []netip.Prefix{pfx(3)},
			Announce: map[uint32]topology.AnnouncePolicy{12: {}}},
	}
	ases[8].Groups = groups
	g := topology.NewGraph(topology.EraOf(2024, 1), 1, ases, groups)

	vps := []core.VP{{Collector: "rrc00", ASN: 21}, {Collector: "rrc00", ASN: 22}, {Collector: "rrc00", ASN: 23}}
	vpASNs := []uint32{21, 22, 23}
	eng := routing.NewEngine(g, nil)

	var prefixes []netip.Prefix
	for _, grp := range groups {
		prefixes = append(prefixes, grp.Prefixes...)
	}
	snap := core.NewSnapshot(0, vps, prefixes)
	idx := map[netip.Prefix]int{}
	for i, p := range prefixes {
		idx[p] = i
	}
	for _, grp := range groups {
		routes := eng.PathsAt(grp, vpASNs)
		for v, r := range routes {
			if r.Path == nil {
				continue
			}
			for _, p := range grp.Prefixes {
				snap.SetRoute(idx[p], v, r.Path)
			}
		}
	}

	fmt.Println("observed paths (VP-first, origin last):")
	for p := range prefixes {
		fmt.Printf("  %v:\n", prefixes[p])
		for v := range vps {
			fmt.Printf("    at AS%d: %v\n", vps[v].ASN, snap.Route(p, v))
		}
	}

	atoms := core.ComputeAtoms(snap, nil, 1)
	fmt.Printf("\natoms: %d (groups were %d — group 0's two prefixes stay together)\n",
		len(atoms.Atoms), len(groups))

	for _, method := range []metrics.FormationMethod{
		metrics.MethodUniqueCount, metrics.MethodStripBeforeDistance, metrics.MethodStripBeforeGrouping,
	} {
		opts := metrics.DefaultFormationOptions()
		opts.Method = method
		res := metrics.FormationDistances(atoms, opts, nil)
		tbl := &textplot.Table{
			Title:   fmt.Sprintf("\nformation distances, method (%s)", methodName(method)),
			Headers: []string{"distance", "atoms"},
		}
		for d := 1; d < len(res.AtomsAtDistance); d++ {
			if res.AtomsAtDistance[d] > 0 {
				tbl.AddRow(fmt.Sprint(d), fmt.Sprint(res.AtomsAtDistance[d]))
			}
		}
		tbl.Render(os.Stdout)
		if method == metrics.MethodUniqueCount {
			fmt.Printf("  distance-1 causes: single-atom=%d unique-peers=%d prepend=%d\n",
				res.D1SingleAtom, res.D1UniquePeers, res.D1Prepend)
		}
		if method == metrics.MethodStripBeforeGrouping {
			fmt.Printf("  note: method (i) groups on stripped paths (%d atoms); the prepend group\n", res.TotalAtoms)
			fmt.Println("  survives here only because its prepending also changed VP3's selection —")
			fmt.Println("  with equal upstream choices it would merge, losing the policy signal.")
		}
	}
}

func methodName(m metrics.FormationMethod) string {
	switch m {
	case metrics.MethodStripBeforeGrouping:
		return "i: strip before grouping"
	case metrics.MethodStripBeforeDistance:
		return "ii: strip before distance"
	default:
		return "iii: unique-AS count, adopted"
	}
}
