package collector

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/prefixset"
	"repro/internal/routing"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// TestFastPathEquivalence pins the contract of BuildFeeds: the in-memory
// fast path and the full MRT wire round-trip must produce identical
// sanitized snapshots.
func TestFastPathEquivalence(t *testing.T) {
	p := topology.DefaultParams(41)
	p.Scale = 0.008
	g := topology.Generate(p, topology.EraOf(2019, 3))
	in := BuildInfra(g, Config{Seed: 11, Artifacts: true})
	model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 0.05,
		TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: 0.01}
	ts := EpochOf(g.Era)
	ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())

	// Slow path: MRT round-trip.
	snap := BuildRIBs(g, in, ov, ts)
	var sources []bgpstream.Source
	for name, data := range snap.Archives {
		sources = append(sources, bgpstream.BytesSource(name, data, bgp.Options{}))
	}
	slow, slowRep, err := sanitize.Clean(sources, nil, sanitize.Defaults())
	if err != nil {
		t.Fatal(err)
	}

	// Fast path: in-memory feeds.
	feeds := BuildFeeds(g, in, ov, ts, aspath.NewTable())
	fast, fastRep, err := sanitize.CleanFeeds(feeds, nil, sanitize.Defaults())
	if err != nil {
		t.Fatal(err)
	}

	if len(slow.VPs) != len(fast.VPs) {
		t.Fatalf("VPs: slow %d fast %d", len(slow.VPs), len(fast.VPs))
	}
	for i := range slow.VPs {
		if slow.VPs[i] != fast.VPs[i] {
			t.Fatalf("VP %d: %v != %v", i, slow.VPs[i], fast.VPs[i])
		}
	}
	if len(slow.Prefixes) != len(fast.Prefixes) {
		t.Fatalf("prefixes: slow %d fast %d", len(slow.Prefixes), len(fast.Prefixes))
	}
	for i := range slow.Prefixes {
		if slow.Prefixes[i] != fast.Prefixes[i] {
			t.Fatalf("prefix %d: %v != %v", i, slow.Prefixes[i], fast.Prefixes[i])
		}
	}
	for p := range slow.Prefixes {
		for v := range slow.VPs {
			a, b := slow.Route(p, v), fast.Route(p, v)
			if !a.Equal(b) {
				t.Fatalf("route (%d,%d): %v != %v", p, v, a, b)
			}
		}
	}
	if slowRep.FullFeeds != fastRep.FullFeeds ||
		slowRep.PrefixesAdmitted != fastRep.PrefixesAdmitted ||
		slowRep.MOASPrefixes != fastRep.MOASPrefixes {
		t.Errorf("reports differ: slow %+v fast %+v", slowRep, fastRep)
	}
}

// TestBuildFeedsSortedRoutes checks the FeedSet contract BuildFeeds
// must meet: the prefix union is strictly ascending, ghost prefixes,
// moved prefixes and stuck peers included, and every path ID is in the
// set's table.
func TestBuildFeedsSortedRoutes(t *testing.T) {
	p := topology.DefaultParams(41)
	p.Scale = 0.008
	g := topology.Generate(p, topology.EraOf(2019, 3))
	in := BuildInfra(g, Config{Seed: 11, Artifacts: true})
	model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 0.05,
		TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: 0.01}
	ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())

	fs := BuildFeeds(g, in, ov, EpochOf(g.Era), aspath.NewTable())
	for p := 1; p < len(fs.Prefixes); p++ {
		if prefixset.ComparePrefixes(fs.Prefixes[p-1], fs.Prefixes[p]) >= 0 {
			t.Fatalf("prefix %d %v not after %v", p, fs.Prefixes[p], fs.Prefixes[p-1])
		}
	}
	ghosts := 0
	for p, pfx := range fs.Prefixes {
		for f, id := range fs.Row(p) {
			if int(id) >= fs.Paths.Len() {
				t.Fatalf("%v at %v: ID %d outside the table (%d paths)", pfx, fs.Feeds[f].VP, id, fs.Paths.Len())
			}
			if id != aspath.Empty && pfx == ghostPrefix(fs.Feeds[f].VP.ASN, 0) {
				ghosts++
			}
		}
	}
	if ghosts == 0 {
		t.Fatal("no feed carries a ghost prefix; the check above never saw one")
	}
}

// TestGhostCountOverRoutedPrefixes pins a ghost peer's fabricated
// prefix count to int(GhostShare × routed prefixes × PartialShare),
// where routed prefixes are those some peer has a route for. Withdrawn
// units leave prefixes that are announced but routed nowhere, and they
// must not count.
func TestGhostCountOverRoutedPrefixes(t *testing.T) {
	p := topology.DefaultParams(41)
	p.Scale = 0.008
	g := topology.Generate(p, topology.EraOf(2012, 1))
	in := BuildInfra(g, Config{Seed: 11})
	ov := &routing.Overlay{WithdrawnUnits: map[int]bool{}}
	announced := map[netip.Prefix]bool{}
	for i, u := range g.Groups {
		if i%10 == 0 {
			ov.WithdrawnUnits[u.ID] = true
		}
		for _, pfx := range u.Prefixes {
			announced[pfx] = true
		}
	}
	ts := EpochOf(g.Era)

	// Count routed prefixes without the route table: when every peer is
	// a full feed without ghosts, the union of the feeds is exactly the
	// set of prefixes some peer routes.
	full := cloneInfra(in, func(p *Peer) { p.FullFeed, p.GhostShare = true, 0 })
	fs := BuildFeeds(g, full, ov, ts, aspath.NewTable())
	routed := 0
	for p := range fs.Prefixes {
		if slices.ContainsFunc(fs.Row(p), func(id aspath.ID) bool { return id != aspath.Empty }) {
			routed++
		}
	}
	if routed == 0 || routed >= len(announced) {
		t.Fatalf("routed %d of %d announced prefixes: the scenario needs unrouted ones", routed, len(announced))
	}

	// One peer fabricates a ghost per routed prefix.
	ghostASN := in.Collectors[0].Peers[0].ASN
	ghosty := cloneInfra(in, func(p *Peer) {
		if p.ASN == ghostASN {
			p.FullFeed, p.PartialShare, p.GhostShare = false, 1, 1
		}
	})
	feed := routeMap(BuildFeeds(g, ghosty, ov, ts, aspath.NewTable()), core.VP{Collector: ghosty.Collectors[0].Name, ASN: ghostASN})
	peer := ghosty.Collectors[0].Peers[0]
	got := 0
	for feed[ghostPrefix(ghostASN, got)].Equal(ghostPath(ghosty, peer, got)) {
		got++
	}
	if want := int(peer.GhostShare * float64(routed) * peer.PartialShare); got != want {
		t.Errorf("ghost prefixes = %d, want %d (routed %d, announced %d)", got, want, routed, len(announced))
	}
}

// cloneInfra deep-copies in's collectors and peers, applying edit to
// every peer copy.
func cloneInfra(in *Infra, edit func(*Peer)) *Infra {
	out := *in
	out.Collectors = make([]*Collector, len(in.Collectors))
	for i, c := range in.Collectors {
		cc := *c
		cc.Peers = make([]*Peer, len(c.Peers))
		for j, p := range c.Peers {
			pp := *p
			edit(&pp)
			cc.Peers[j] = &pp
		}
		out.Collectors[i] = &cc
	}
	return &out
}

// TestLazyAltRoutes pins the route table's lazy runner-up routes to an
// eager reference: AltRouteAt at every VP for every unit, then the shift
// rule applied per (prefix, VP) that some peer of the VP exports; the
// cells no peer exports stay empty. VPShiftShare is forced high so a
// large share of shifted VPs' cells take the runner-up route.
func TestLazyAltRoutes(t *testing.T) {
	p := topology.DefaultParams(41)
	p.Scale = 0.004
	g := topology.Generate(p, topology.EraOf(2019, 3))
	in := BuildInfra(g, Config{Seed: 11, Artifacts: true})
	model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 2,
		TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: 0.5}
	ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())
	got := buildRouteTable(g, in, ov, aspath.NewTable())

	peersOf := map[uint32][]*Peer{}
	var vps []uint32
	for _, cp := range in.AllPeers() {
		if peersOf[cp.Peer.ASN] == nil && cp.Peer.Artifact != ArtifactStuck {
			vps = append(vps, cp.Peer.ASN)
		}
		peersOf[cp.Peer.ASN] = append(peersOf[cp.Peer.ASN], cp.Peer)
	}
	slices.Sort(vps)
	want := &routeTable{paths: got.paths, prefixes: got.prefixes, nVPs: got.nVPs, cells: make([]routeEntry, len(got.cells))}
	eng := routing.NewEngine(g, ov)
	moves := routing.BuildMoveSet(ov)
	shifted := 0
	for _, u := range g.Groups {
		best := eng.PathsAt(u, vps)
		alts := make([]routing.VPRoute, len(vps))
		for v, vp := range vps {
			alts[v], _ = eng.AltRouteAt(vp)
		}
		for _, pfx := range moves.UnitPrefixes(u) {
			ri, _ := slices.BinarySearchFunc(want.prefixes, pfx, prefixset.ComparePrefixes)
			row := want.row(ri)
			label := prefixLabel(pfx)
			for v, vp := range vps {
				r := best[v]
				exported := slices.ContainsFunc(peersOf[vp], func(p *Peer) bool { return carries(in, p, label) })
				if r.Path == nil || !exported {
					continue
				}
				if tok := ov.VPShift[vp]; tok != 0 && alts[v].Path != nil &&
					(topology.ChainUnit(ov.VPSticky[vp], label) < ov.VPShiftShare*0.7 || topology.ChainUnit(tok, label) < ov.VPShiftShare*0.3) {
					r = alts[v]
					shifted++
				}
				cand := want.entry(r)
				if row[v].id == aspath.Empty || want.better(cand, row[v]) {
					row[v] = cand
				}
			}
		}
	}
	if shifted < 100 {
		t.Fatalf("only %d cells took a runner-up route; the shift rule is barely exercised", shifted)
	}
	for p, pfx := range got.prefixes {
		for v, vp := range vps {
			a, b := got.row(p)[v], want.row(p)[v]
			if a != b {
				t.Fatalf("%v at VP %d: %v/%d/%v, eager %v/%d/%v", pfx, vp,
					got.paths.Seq(a.id), a.cost, a.class, got.paths.Seq(b.id), b.cost, b.class)
			}
		}
	}
}

// TestRouteTableInternsOnlyExportedRoutes: after BuildFeeds into a
// fresh table, the table holds the empty path, the paths the feed set
// references, and the routes the route table weighed for cells some
// peer exports — each exported (unit, VP) best route and each runner-up
// the shift rule selects for an exported prefix — and nothing else. A
// unit's route at a VP none of whose peers carries any of its prefixes
// is never interned.
func TestRouteTableInternsOnlyExportedRoutes(t *testing.T) {
	p := topology.DefaultParams(41)
	p.Scale = 0.004
	g := topology.Generate(p, topology.EraOf(2024, 1))
	in := BuildInfra(g, Config{Seed: 11, Artifacts: true})
	peersOf := map[uint32][]*Peer{}
	var vps, stuck []uint32
	for _, cp := range in.AllPeers() {
		if peersOf[cp.Peer.ASN] == nil {
			if cp.Peer.Artifact == ArtifactStuck {
				stuck = append(stuck, cp.Peer.ASN)
			} else {
				vps = append(vps, cp.Peer.ASN)
			}
		}
		peersOf[cp.Peer.ASN] = append(peersOf[cp.Peer.ASN], cp.Peer)
	}
	slices.Sort(vps)
	exported := func(vp uint32, pfx netip.Prefix) bool {
		return slices.ContainsFunc(peersOf[vp], func(p *Peer) bool { return carries(in, p, prefixLabel(pfx)) })
	}
	// weigh interns into need every route the table weighs for u's
	// exported cells at vps.
	weigh := func(need *aspath.Table, eng *routing.Engine, ov *routing.Overlay, u *topology.PolicyGroup, prefixes []netip.Prefix, vps []uint32) {
		eng.ComputeUnit(u)
		for _, vp := range vps {
			best, ok := eng.RouteAt(vp)
			if !ok || !slices.ContainsFunc(prefixes, func(pfx netip.Prefix) bool { return exported(vp, pfx) }) {
				continue
			}
			need.Intern(best.Path)
			tok := ov.VPShift[vp]
			if tok == 0 {
				continue
			}
			for _, pfx := range prefixes {
				label := prefixLabel(pfx)
				if exported(vp, pfx) && (topology.ChainUnit(ov.VPSticky[vp], label) < ov.VPShiftShare*0.7 || topology.ChainUnit(tok, label) < ov.VPShiftShare*0.3) {
					if alt, ok := eng.AltRouteAt(vp); ok {
						need.Intern(alt.Path)
					}
				}
			}
		}
	}
	for _, shift := range []float64{0.015, 0.5} {
		model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 2,
			TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: shift}
		ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())
		table := aspath.NewTable()
		fs := BuildFeeds(g, in, ov, EpochOf(g.Era), table)

		need := aspath.NewTable()
		for r := range fs.Prefixes {
			for _, id := range fs.Row(r) {
				if id != aspath.Empty {
					need.Intern(table.Seq(id))
				}
			}
		}
		referenced := need.Len() - 1
		eng := routing.NewEngine(g, ov)
		moves := routing.BuildMoveSet(ov)
		stale := routing.NewEngine(g, nil)
		for _, u := range g.Groups {
			weigh(need, eng, ov, u, moves.UnitPrefixes(u), vps)
			weigh(need, stale, &routing.Overlay{}, u, u.Prefixes, stuck)
		}
		if table.Len() != need.Len() {
			t.Errorf("shift %v: table holds %d paths, want %d: the empty path, %d the feed set references and %d more weighed for exported cells",
				shift, table.Len(), need.Len(), referenced, need.Len()-1-referenced)
		}
	}
}
