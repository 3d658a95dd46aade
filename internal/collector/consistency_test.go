package collector

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
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
// replayed table must agree with t2 far better than t1 does. A
// partial-feed peer's stream describes its own table: every prefix it
// announces or withdraws, flaps included, is one the peer carries.
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

	feeds1 := BuildFeeds(g, in, model.OverlayAt(g, t1, vps), ts, aspath.NewTable())
	feeds2 := BuildFeeds(g, in, model.OverlayAt(g, t2, vps), ts+86400, aspath.NewTable())

	updates := BuildUpdates(g, in, UpdateConfig{
		Model: model, FromT: t1, ToT: t2, BaseTime: ts,
		FullMessageProb: 1.0, // no chunk jitter for a crisp replay
		FlapRate:        0.05,
	})

	partial := map[uint32]*Peer{}
	for _, cp := range in.AllPeers() {
		if !cp.Peer.FullFeed {
			partial[cp.Peer.ASN] = cp.Peer
		}
	}
	touched, foreign := 0, 0
	for name, data := range updates {
		elems, err := bgpstream.NewStream(nil, bgpstream.BytesSource(name, data, bgp.Options{})).All()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range elems {
			p := partial[e.PeerASN]
			if p == nil || (e.Type != bgpstream.ElemAnnounce && e.Type != bgpstream.ElemWithdraw) {
				continue
			}
			touched++
			if !carries(in, p, prefixLabel(e.Prefix)) {
				foreign++
			}
		}
	}
	if touched == 0 {
		t.Fatal("no partial-feed updates in the window")
	}
	if foreign > 0 {
		t.Errorf("%d of %d partial-feed update elements name a prefix outside the peer's table", foreign, touched)
	}

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
	vp := core.VP{Collector: coll.Name, ASN: peer.ASN}
	table1, table2 := routeMap(feeds1, vp), routeMap(feeds2, vp)
	if table1 == nil || table2 == nil {
		t.Fatal("peer feed missing")
	}

	// Replay the peer's updates onto table1.
	replayed := make(map[netip.Prefix]aspath.Seq, len(table1))
	for k, v := range table1 {
		replayed[k] = v
	}
	s := bgpstream.NewStream(nil, bgpstream.BytesSource(coll.Name, updates[coll.Name], bgp.Options{}))
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for _, e := range elems {
		if e.PeerASN != peer.ASN {
			continue
		}
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

// routeMap indexes vp's routes in fs by prefix; nil when fs has no
// feed for vp.
func routeMap(fs *sanitize.FeedSet, vp core.VP) map[netip.Prefix]aspath.Seq {
	f := slices.IndexFunc(fs.Feeds, func(fi sanitize.FeedInfo) bool { return fi.VP == vp })
	if f < 0 {
		return nil
	}
	m := map[netip.Prefix]aspath.Seq{}
	for p, pfx := range fs.Prefixes {
		if id := fs.Row(p)[f]; id != aspath.Empty {
			m[pfx] = fs.Paths.Seq(id)
		}
	}
	return m
}
