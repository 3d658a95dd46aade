package collector

import (
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/routing"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// TestUpdatesTransformRIBs is the integration contract between snapshot
// and update synthesis: replaying the update stream for (t1, t2) on top
// of a full-feed peer's t1 table must land close to its t2 table. Exact
// equality is not expected — VP route shifts change snapshots without
// emitting updates (a documented infidelity) — but path-changing policy
// events, prefix moves, and flaps all travel through the stream, so the
// replayed table must agree with t2 far better than t1 does.
func TestUpdatesTransformRIBs(t *testing.T) {
	p := topology.DefaultParams(61)
	p.Scale = 0.008
	g := topology.Generate(p, topology.EraOf(2018, 1))
	in := BuildInfra(g, Config{Seed: 13}) // no artifacts: clean replay
	model := routing.ChurnModel{
		Seed: 5, UnitEventRate: 0.4, VPEventRate: 0.05, TransitFlipShare: 0.4,
		PrefixMobileShare: 0.03, PrefixBaseMoveRate: 0.02, RefreshRate: 0.5,
	}
	vps := in.FullFeedASNs()
	const t1, t2 = 10.0, 11.0
	ts := EpochOf(g.Era)

	feeds1 := BuildFeeds(g, in, model.OverlayAt(g, t1, vps), ts)
	feeds2 := BuildFeeds(g, in, model.OverlayAt(g, t2, vps), ts+86400)

	updates := BuildUpdates(g, in, UpdateConfig{
		Model: model, FromT: t1, ToT: t2, BaseTime: ts,
		FullMessageProb: 1.0, // no chunk jitter for a crisp replay
	})

	// Pick the busiest full-feed peer's feed at one collector.
	var coll *Collector
	var peer *Peer
	for _, c := range in.Collectors {
		for _, pr := range c.Peers {
			if pr.FullFeed && pr.Artifact == ArtifactNone {
				coll, peer = c, pr
				break
			}
		}
		if peer != nil {
			break
		}
	}
	if peer == nil {
		t.Skip("no clean full feed")
	}
	var table1, table2 map[netip.Prefix]aspath.Seq
	for _, f := range feeds1 {
		if f.VP.Collector == coll.Name && f.VP.ASN == peer.ASN {
			table1 = routeMap(f.Routes)
		}
	}
	for _, f := range feeds2 {
		if f.VP.Collector == coll.Name && f.VP.ASN == peer.ASN {
			table2 = routeMap(f.Routes)
		}
	}
	if table1 == nil || table2 == nil {
		t.Fatal("peer feed missing")
	}

	// Replay the peer's updates onto table1.
	replayed := make(map[netip.Prefix]aspath.Seq, len(table1))
	for k, v := range table1 {
		replayed[k] = v
	}
	s := bgpstream.NewStream(&bgpstream.Filter{
		Collectors: map[string]bool{coll.Name: true},
		PeerASNs:   map[uint32]bool{peer.ASN: true},
	}, bgpstream.BytesSource(coll.Name, updates[coll.Name], bgp.Options{}))
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for _, e := range elems {
		switch e.Type {
		case bgpstream.ElemAnnounce:
			seq, err := e.Path.Sequence()
			if err != nil {
				continue
			}
			replayed[e.Prefix] = seq
			applied++
		case bgpstream.ElemWithdraw:
			delete(replayed, e.Prefix)
			applied++
		}
	}
	if applied == 0 {
		t.Skip("no updates for this peer in the window")
	}

	agree := func(a, b map[netip.Prefix]aspath.Seq) (same, total int) {
		for pfx, pa := range a {
			total++
			if pb, ok := b[pfx]; ok && pa.Equal(pb) {
				same++
			}
		}
		for pfx := range b {
			if _, ok := a[pfx]; !ok {
				total++
			}
		}
		return
	}
	sBefore, tBefore := agree(table1, table2)
	sAfter, tAfter := agree(replayed, table2)
	before := float64(sBefore) / float64(tBefore)
	after := float64(sAfter) / float64(tAfter)
	t.Logf("peer %s/AS%d: agreement with t2: before replay %.3f, after replay %.3f (%d updates)",
		coll.Name, peer.ASN, before, after, applied)
	if after < before {
		t.Errorf("replaying updates moved the table AWAY from t2: %.3f -> %.3f", before, after)
	}
	if after < 0.97 {
		t.Errorf("replayed table agrees with t2 at only %.3f", after)
	}
}

// routeMap indexes a feed's sorted routes by prefix.
func routeMap(routes []sanitize.Route) map[netip.Prefix]aspath.Seq {
	m := make(map[netip.Prefix]aspath.Seq, len(routes))
	for _, r := range routes {
		m[r.Prefix] = r.Path
	}
	return m
}
