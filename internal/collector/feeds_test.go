package collector

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
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
	feeds := BuildFeeds(g, in, ov, ts)
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

// TestBuildFeedsSortedRoutes checks the Feed contract BuildFeeds must
// meet: every feed's routes are strictly ascending by prefix, ghost
// prefixes, moved prefixes and stuck peers included.
func TestBuildFeedsSortedRoutes(t *testing.T) {
	p := topology.DefaultParams(41)
	p.Scale = 0.008
	g := topology.Generate(p, topology.EraOf(2019, 3))
	in := BuildInfra(g, Config{Seed: 11, Artifacts: true})
	model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 0.05,
		TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: 0.01}
	ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())

	ghosts := 0
	for _, f := range BuildFeeds(g, in, ov, EpochOf(g.Era)) {
		for j := 1; j < len(f.Routes); j++ {
			if prefixset.ComparePrefixes(f.Routes[j-1].Prefix, f.Routes[j].Prefix) >= 0 {
				t.Fatalf("feed %v: route %d %v not after %v", f.VP, j, f.Routes[j].Prefix, f.Routes[j-1].Prefix)
			}
		}
		for _, r := range f.Routes {
			if r.Prefix == ghostPrefix(f.VP.ASN, 0) {
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
	union := map[netip.Prefix]bool{}
	for _, f := range BuildFeeds(g, full, ov, ts) {
		for _, r := range f.Routes {
			union[r.Prefix] = true
		}
	}
	routed := len(union)
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
	var feed map[netip.Prefix]aspath.Seq
	for _, f := range BuildFeeds(g, ghosty, ov, ts) {
		if f.VP.Collector == ghosty.Collectors[0].Name && f.VP.ASN == ghostASN {
			feed = routeMap(f.Routes)
		}
	}
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
// rule applied per (prefix, VP). VPShiftShare is forced high so a large
// share of shifted VPs' cells take the runner-up route.
func TestLazyAltRoutes(t *testing.T) {
	p := topology.DefaultParams(41)
	p.Scale = 0.004
	g := topology.Generate(p, topology.EraOf(2019, 3))
	in := BuildInfra(g, Config{Seed: 11, Artifacts: true})
	model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 2,
		TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: 0.5}
	ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())
	got := buildRouteTable(g, in, ov)

	seen := map[uint32]bool{}
	var vps []uint32
	for _, cp := range in.AllPeers() {
		if !seen[cp.Peer.ASN] && cp.Peer.Artifact != ArtifactStuck {
			vps = append(vps, cp.Peer.ASN)
		}
		seen[cp.Peer.ASN] = true
	}
	slices.Sort(vps)
	want := &routeTable{prefixes: got.prefixes, nVPs: got.nVPs, cells: make([]routeEntry, len(got.cells))}
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
			row := want.rowOf(pfx)
			label := prefixLabel(pfx)
			for v, vp := range vps {
				r := best[v]
				if r.Path == nil {
					continue
				}
				if tok := ov.VPShift[vp]; tok != 0 && alts[v].Path != nil &&
					(unitc(ov.VPSticky[vp], label) < ov.VPShiftShare*0.7 || unitc(tok, label) < ov.VPShiftShare*0.3) {
					r = alts[v]
					shifted++
				}
				cand := routeEntry{path: r.Path, cost: int32(r.Cost), class: r.Class}
				if row[v].path == nil || better(cand, row[v]) {
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
			if !a.path.Equal(b.path) || a.cost != b.cost || a.class != b.class {
				t.Fatalf("%v at VP %d: %v/%d/%v, eager %v/%d/%v", pfx, vp, a.path, a.cost, a.class, b.path, b.cost, b.class)
			}
		}
	}
}
