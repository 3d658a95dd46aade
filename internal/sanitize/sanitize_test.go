package sanitize_test

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/collector"
	"repro/internal/mrt"
	"repro/internal/routing"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// buildScenario produces RIB archives with artifacts plus update-stream
// warnings, the full raw input of the pipeline.
func buildScenario(t *testing.T, era topology.Era, artifacts bool) ([]bgpstream.Source, []bgpstream.Warning, *topology.Graph, *collector.Infra) {
	t.Helper()
	p := topology.DefaultParams(31)
	p.Scale = 0.01
	g := topology.Generate(p, era)
	in := collector.BuildInfra(g, collector.Config{Seed: 7, Artifacts: artifacts})
	snap := collector.BuildRIBs(g, in, nil, collector.EpochOf(era))
	var sources []bgpstream.Source
	for name, data := range snap.Archives {
		sources = append(sources, bgpstream.BytesSource(name, data, bgp.Options{}))
	}
	var warnings []bgpstream.Warning
	if artifacts {
		cfg := collector.UpdateConfig{
			Model: routing.ChurnModel{Seed: 9, UnitEventRate: 0.8, VPEventRate: 0.02, TransitFlipShare: 0.4},
			FromT: 0, ToT: 4.0 / 24.0,
			BaseTime:        collector.EpochOf(era),
			FullMessageProb: 0.8,
			FlapRate:        0.05,
		}
		updates := collector.BuildUpdates(g, in, cfg)
		var usrc []bgpstream.Source
		for name, data := range updates {
			usrc = append(usrc, bgpstream.BytesSource(name, data, bgp.Options{}))
		}
		us := bgpstream.NewStream(nil, usrc...)
		if _, err := us.All(); err != nil {
			t.Fatal(err)
		}
		warnings = us.Warnings()
	}
	return sources, warnings, g, in
}

func TestCleanBasics(t *testing.T) {
	sources, _, g, in := buildScenario(t, topology.EraOf(2012, 1), false)
	snap, rep, err := sanitize.Clean(sources, nil, sanitize.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.VPs) == 0 || len(snap.Prefixes) == 0 {
		t.Fatalf("empty snapshot: %d VPs, %d prefixes", len(snap.VPs), len(snap.Prefixes))
	}
	// Full-feed count should be close to the infra's ground truth
	// (a full feed can dip below 90% if selective export hides routes).
	truth := len(in.FullFeedASNs())
	if rep.FullFeeds < truth/2 || rep.FullFeeds > truth*3 {
		t.Errorf("full feeds = %d, ground truth distinct ASNs = %d", rep.FullFeeds, truth)
	}
	// All admitted prefixes must be real graph prefixes (ghosts gone).
	v4, v6 := g.TotalPrefixes()
	if rep.PrefixesAdmitted > v4+v6 {
		t.Errorf("admitted %d > originated %d", rep.PrefixesAdmitted, v4+v6)
	}
	// Every stored route must start at the VP's ASN.
	for p := range snap.Prefixes {
		for v := range snap.VPs {
			seq := snap.Route(p, v)
			if len(seq) > 0 && seq[0] != snap.VPs[v].ASN {
				t.Fatalf("route %v does not start at VP %d", seq, snap.VPs[v].ASN)
			}
		}
	}
	// Funnel arithmetic.
	if rep.PrefixesAdmitted+rep.DroppedByLength+rep.DroppedByCollector+rep.DroppedByPeerASes != rep.PrefixesSeen {
		t.Errorf("funnel mismatch: %+v", rep)
	}
}

func TestCleanRemovesGhosts(t *testing.T) {
	sources, _, _, _ := buildScenario(t, topology.EraOf(2012, 1), false)
	snap, rep, err := sanitize.Clean(sources, nil, sanitize.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Ghost prefixes live in 176.0.0.0/8; none may survive the
	// visibility filter.
	for _, pfx := range snap.Prefixes {
		if pfx.Addr().Is4() && pfx.Addr().As4()[0] == 176 {
			t.Errorf("ghost prefix %v survived", pfx)
		}
	}
	_ = rep // ghosts live in partial feeds, excluded at full-feed inference
}

// TestVisibilityThresholdsDirect exercises the §2.4.3 filters on a
// hand-built feed set where ground truth is exact.
func TestVisibilityThresholdsDirect(t *testing.T) {
	mk := edgeFeed
	wide := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.0.4.0/24"}
	feeds := []*sanitize.Feed{
		mk("c1", 1, wide...),
		mk("c1", 2, wide...),
		mk("c2", 3, wide...),
		mk("c2", 4, wide...),
	}
	// A prefix seen at one collector only (2 peers at c1): the collector
	// rule rejects it first.
	setRoute(feeds[0], "10.9.0.0/24", aspath.Seq{1, 9})
	setRoute(feeds[1], "10.9.0.0/24", aspath.Seq{2, 9})
	// A prefix seen at two collectors but by only 2 peer ASes: passes
	// the collector rule, fails the peer-AS rule.
	setRoute(feeds[0], "10.10.0.0/24", aspath.Seq{1, 9})
	setRoute(feeds[2], "10.10.0.0/24", aspath.Seq{3, 9})
	// A too-specific prefix seen everywhere.
	for _, f := range feeds {
		setRoute(f, "10.8.0.0/25", aspath.Seq{f.VP.ASN, 9})
	}
	opts := sanitize.Defaults()
	// Keep every feed a vantage point despite the deliberate size skew.
	opts.FullFeedFraction = 0.5
	snap, rep, err := sanitize.CleanFeeds(feeds, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Prefixes) != 5 {
		t.Errorf("admitted %d prefixes, want the 5 wide ones: %v", len(snap.Prefixes), snap.Prefixes)
	}
	if rep.DroppedByCollector != 1 {
		t.Errorf("DroppedByCollector = %d, want 1", rep.DroppedByCollector)
	}
	if rep.DroppedByPeerASes != 1 {
		t.Errorf("DroppedByPeerASes = %d, want 1", rep.DroppedByPeerASes)
	}
	if rep.DroppedByLength != 1 {
		t.Errorf("DroppedByLength = %d, want 1", rep.DroppedByLength)
	}
}

func TestCleanRemovesAbnormalPeers(t *testing.T) {
	sources, warnings, _, in := buildScenario(t, topology.EraOf(2022, 1), true)
	// Ensure the scenario actually contains artifact peers; if not,
	// the assertions below would be vacuous.
	var wantPriv, wantDup, wantAddPath []uint32
	for _, cp := range in.AllPeers() {
		switch cp.Peer.Artifact {
		case collector.ArtifactPrivateASN:
			wantPriv = append(wantPriv, cp.Peer.ASN)
		case collector.ArtifactDuplicates:
			wantDup = append(wantDup, cp.Peer.ASN)
		case collector.ArtifactAddPath:
			wantAddPath = append(wantAddPath, cp.Peer.ASN)
		}
	}
	_, rep, err := sanitize.Clean(sources, warnings, sanitize.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	check := func(asns []uint32, reason sanitize.RemovalReason) {
		for _, asn := range asns {
			if got, ok := rep.RemovedPeerASes[asn]; !ok {
				t.Errorf("peer %d (%s) not removed; removals: %v", asn, reason, rep.RemovedPeerASes)
			} else if got != reason {
				t.Errorf("peer %d removed for %q, want %q", asn, got, reason)
			}
		}
	}
	check(wantPriv, sanitize.RemovedPrivateASN)
	check(wantDup, sanitize.RemovedDuplicates)
	check(wantAddPath, sanitize.RemovedAddPath)
	if len(wantPriv)+len(wantDup)+len(wantAddPath) == 0 {
		t.Skip("no artifact peers at this scale/seed — enlarge scenario")
	}
	// False positives: clean peers must not be removed en masse.
	if len(rep.RemovedPeerASes) > len(wantPriv)+len(wantDup)+len(wantAddPath)+2 {
		t.Errorf("too many removals: %v", rep.RemovedPeerASes)
	}
}

func TestCleanFamilies(t *testing.T) {
	sources, _, _, _ := buildScenario(t, topology.EraOf(2020, 1), false)
	optsV4 := sanitize.Defaults()
	optsV4.Family = 4
	s4, _, err := sanitize.Clean(sources, nil, optsV4)
	if err != nil {
		t.Fatal(err)
	}
	optsV6 := sanitize.Defaults()
	optsV6.Family = 6
	s6, _, err := sanitize.Clean(sources, nil, optsV6)
	if err != nil {
		t.Fatal(err)
	}
	if len(s4.Prefixes) == 0 || len(s6.Prefixes) == 0 {
		t.Fatalf("v4=%d v6=%d prefixes", len(s4.Prefixes), len(s6.Prefixes))
	}
	for _, pfx := range s4.Prefixes {
		if !pfx.Addr().Is4() {
			t.Fatalf("v6 prefix %v in v4 snapshot", pfx)
		}
	}
	for _, pfx := range s6.Prefixes {
		if pfx.Addr().Is4() {
			t.Fatalf("v4 prefix %v in v6 snapshot", pfx)
		}
	}
}

func TestAfek2002Mode(t *testing.T) {
	p := topology.DefaultParams(31)
	p.Scale = 0.01
	g := topology.Generate(p, topology.EraOf(2002, 1))
	in := collector.BuildInfra(g, collector.Config{Seed: 7, ForceCollectors: 1, ForceFullFeeds: 13})
	snap := collector.BuildRIBs(g, in, nil, collector.EpochOf(g.Era))
	var sources []bgpstream.Source
	for name, data := range snap.Archives {
		sources = append(sources, bgpstream.BytesSource(name, data, bgp.Options{}))
	}
	s, rep, err := sanitize.Clean(sources, nil, sanitize.Afek2002())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.VPs) != 13 {
		t.Errorf("VPs = %d, want 13", len(s.VPs))
	}
	// No prefixes dropped in reproduction mode.
	if rep.PrefixesAdmitted != rep.PrefixesSeen {
		t.Errorf("2002 mode dropped prefixes: %d/%d", rep.PrefixesAdmitted, rep.PrefixesSeen)
	}
}

func TestVisibilitySweep(t *testing.T) {
	sources, _, _, _ := buildScenario(t, topology.EraOf(2016, 1), false)
	vis, err := sanitize.VisibilityIndex(sources, nil, sanitize.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Monotone: raising either threshold can only shrink the count.
	prev := -1
	for c := 1; c <= 3; c++ {
		row := make([]int, 0, 5)
		for a := 1; a <= 5; a++ {
			row = append(row, vis.Count(c, a))
		}
		for i := 1; i < len(row); i++ {
			if row[i] > row[i-1] {
				t.Errorf("collectors=%d: count rose with stricter peer threshold: %v", c, row)
			}
		}
		if prev >= 0 && row[0] > prev {
			t.Errorf("count rose with stricter collector threshold")
		}
		prev = row[0]
	}
	if vis.Count(1, 1) == 0 {
		t.Fatal("empty visibility index")
	}
	// The paper's chosen cell must keep the bulk of prefixes (<1%
	// difference vs the loosest within-reason cell, per Table 7).
	loose, chosen := vis.Count(1, 2), vis.Count(2, 4)
	if chosen == 0 || float64(loose-chosen)/float64(loose) > 0.2 {
		t.Errorf("chosen thresholds dropped too much: %d -> %d", loose, chosen)
	}
}

func TestCleanPathsShareTable(t *testing.T) {
	sources, _, _, _ := buildScenario(t, topology.EraOf(2012, 1), false)
	snap, _, err := sanitize.Clean(sources, nil, sanitize.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Route IDs must resolve through snap.Paths.
	resolved := 0
	for p := range snap.Prefixes {
		for v := range snap.VPs {
			if id := snap.RouteID(p, v); id != aspath.Empty {
				if snap.Paths.Seq(id) == nil {
					t.Fatalf("dangling path id %d", id)
				}
				resolved++
			}
		}
	}
	if resolved == 0 {
		t.Fatal("no routes resolved")
	}
}

// TestCleanIngestDedupe pins Clean's per-feed dedupe: the first usable
// path for a prefix wins wherever its records fall in the archive; a
// later entry for a prefix that already has a path counts as a
// duplicate, even when its path is unusable; an unusable path seen
// first counts as AS-set-dropped and does not block a later usable one.
func TestCleanIngestDedupe(t *testing.T) {
	const asn = 1
	seq := func(asns ...uint32) aspath.Path {
		return aspath.Path{Segments: []aspath.Segment{{Type: aspath.SegSequence, ASNs: asns}}}
	}
	unusable := aspath.Path{Segments: []aspath.Segment{
		{Type: aspath.SegSequence, ASNs: []uint32{asn}},
		{Type: aspath.SegSet, ASNs: []uint32{7, 8}},
	}}
	dupThenUnusable := netip.MustParsePrefix("10.0.0.0/24")
	unusableThenUsable := netip.MustParsePrefix("10.0.1.0/24")
	dupThenUsable := netip.MustParsePrefix("10.0.2.0/24")
	archive := ribArchive(t, asn, []ribRecord{
		{dupThenUnusable, seq(asn, 9)},
		{unusableThenUsable, unusable},
		{dupThenUsable, seq(asn, 9)},
		{unusableThenUsable, seq(asn, 5, 9)},
		{dupThenUnusable, unusable},
		{dupThenUsable, seq(asn, 6, 9)},
	})
	opts := sanitize.Afek2002()
	opts.DuplicateShare = 1 // keep the peer despite its duplicates
	snap, rep, err := sanitize.Clean([]bgpstream.Source{bgpstream.BytesSource("c1", archive, bgp.Options{})}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[netip.Prefix]aspath.Seq{
		dupThenUnusable:    {asn, 9},
		unusableThenUsable: {asn, 5, 9},
		dupThenUsable:      {asn, 9},
	}
	if len(snap.Prefixes) != len(want) || len(snap.VPs) != 1 {
		t.Fatalf("snapshot has %d prefixes, %d VPs; want %d, 1", len(snap.Prefixes), len(snap.VPs), len(want))
	}
	for p, pfx := range snap.Prefixes {
		if got := snap.Route(p, 0); !got.Equal(want[pfx]) {
			t.Errorf("%v: path %v, want %v", pfx, got, want[pfx])
		}
	}
	if st := rep.Feeds[0]; st.Duplicates != 2 || st.ASSetDropped != 1 || st.UniquePrefixes != 3 {
		t.Errorf("feed stat %+v, want 2 duplicates, 1 AS-set drop, 3 prefixes", st)
	}
}

// ribRecord is one single-entry RIB record of a test archive.
type ribRecord struct {
	pfx  netip.Prefix
	path aspath.Path
}

// ribArchive writes a one-peer TABLE_DUMP_V2 archive holding recs in
// order.
func ribArchive(t *testing.T, asn uint32, recs []ribRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	addr := netip.MustParseAddr("192.0.2.1")
	pit := &mrt.PeerIndexTable{CollectorID: addr, ViewName: "c1", Peers: []mrt.Peer{{BGPID: addr, Addr: addr, ASN: asn}}}
	body, err := pit.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: 100, Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: body})
	for i, r := range recs {
		attrs, err := bgp.MarshalAttributes([]bgp.Attr{bgp.Origin(bgp.OriginIGP), bgp.ASPath{Path: r.path}}, bgp.Options{AS4: true})
		if err != nil {
			t.Fatal(err)
		}
		rib := &mrt.RIB{Sequence: uint32(i), Prefix: r.pfx, Entries: []mrt.RIBEntry{{Originated: 50, Attrs: attrs}}}
		b, err := rib.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		w.WriteRecord(mrt.Record{Timestamp: 100, Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: b})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
