package collector

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/routing"
	"repro/internal/topology"
)

func testGraph(t *testing.T, era topology.Era) *topology.Graph {
	t.Helper()
	p := topology.DefaultParams(21)
	p.Scale = 0.01
	return topology.Generate(p, era)
}

func TestBuildInfraBasics(t *testing.T) {
	g := testGraph(t, topology.EraOf(2024, 1))
	in := BuildInfra(g, Config{Seed: 3, Artifacts: true})
	if len(in.Collectors) < 2 {
		t.Fatalf("collectors = %d", len(in.Collectors))
	}
	full := in.FullFeedASNs()
	if len(full) < 5 {
		t.Fatalf("full feeds = %d", len(full))
	}
	// Every peer AS must exist in the graph.
	for _, cp := range in.AllPeers() {
		if g.AS(cp.Peer.ASN) == nil {
			t.Errorf("peer %d not in graph", cp.Peer.ASN)
		}
		if !cp.Peer.FullFeed && (cp.Peer.PartialShare <= 0 || cp.Peer.PartialShare > 1) {
			t.Errorf("partial peer %d share %v", cp.Peer.ASN, cp.Peer.PartialShare)
		}
	}
	// Deterministic.
	in2 := BuildInfra(g, Config{Seed: 3, Artifacts: true})
	if len(in2.Collectors) != len(in.Collectors) {
		t.Error("non-deterministic collectors")
	}
	for i, c := range in.Collectors {
		if len(c.Peers) != len(in2.Collectors[i].Peers) {
			t.Error("non-deterministic peers")
		}
	}
}

func TestBuildInfraGrowth(t *testing.T) {
	gEarly := testGraph(t, topology.EraOf(2005, 1))
	gLate := testGraph(t, topology.EraOf(2024, 1))
	early := BuildInfra(gEarly, Config{Seed: 3})
	late := BuildInfra(gLate, Config{Seed: 3})
	if len(late.FullFeedASNs()) <= len(early.FullFeedASNs()) {
		t.Errorf("full feeds did not grow: %d -> %d",
			len(early.FullFeedASNs()), len(late.FullFeedASNs()))
	}
	// Earlier full-feed peers remain peers later (identity stability).
	lateSet := map[uint32]bool{}
	for _, a := range late.FullFeedASNs() {
		lateSet[a] = true
	}
	missing := 0
	for _, a := range early.FullFeedASNs() {
		if !lateSet[a] {
			missing++
		}
	}
	if missing > len(early.FullFeedASNs())/5 {
		t.Errorf("%d/%d early full feeds vanished", missing, len(early.FullFeedASNs()))
	}
}

func TestBuildInfraForced2002(t *testing.T) {
	g := testGraph(t, topology.EraOf(2002, 1))
	in := BuildInfra(g, Config{Seed: 3, ForceCollectors: 1, ForceFullFeeds: 13})
	if len(in.Collectors) != 1 {
		t.Fatalf("collectors = %d", len(in.Collectors))
	}
	if got := len(in.FullFeedASNs()); got != 13 {
		t.Fatalf("full feeds = %d, want 13", got)
	}
	for _, cp := range in.AllPeers() {
		if !cp.Peer.FullFeed {
			t.Error("partial peer in forced-2002 infra")
		}
		if cp.Peer.Artifact != ArtifactNone {
			t.Error("artifact in clean infra")
		}
	}
}

func buildSnapshot(t *testing.T, g *topology.Graph, in *Infra, ov *routing.Overlay) *Snapshot {
	t.Helper()
	return BuildRIBs(g, in, ov, EpochOf(g.Era))
}

func TestBuildRIBsRoundTrip(t *testing.T) {
	g := testGraph(t, topology.EraOf(2010, 1))
	in := BuildInfra(g, Config{Seed: 3})
	snap := buildSnapshot(t, g, in, nil)
	if len(snap.Archives) != len(in.Collectors) {
		t.Fatalf("archives = %d", len(snap.Archives))
	}
	var sources []bgpstream.Source
	for name, data := range snap.Archives {
		if len(data) == 0 {
			t.Fatalf("empty archive %s", name)
		}
		sources = append(sources, bgpstream.BytesSource(name, data, bgp.Options{}))
	}
	s := bgpstream.NewStream(nil, sources...)
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) == 0 {
		t.Fatal("no elements")
	}
	v4, _ := g.TotalPrefixes()
	// Count distinct prefixes across archives.
	prefixes := map[string]bool{}
	paths := 0
	for _, e := range elems {
		if e.Type != bgpstream.ElemRIB {
			t.Fatalf("unexpected elem type %v", e.Type)
		}
		prefixes[e.Prefix.String()] = true
		if len(e.Path.Segments) > 0 {
			paths++
		}
		// Path origin must be the last hop; path first hop must be the peer.
		seq, err := e.Path.Sequence()
		if err != nil {
			t.Fatalf("bad path: %v", err)
		}
		if len(seq) == 0 || seq[0] != e.PeerASN {
			t.Fatalf("path %v does not start at peer %d", seq, e.PeerASN)
		}
	}
	if len(prefixes) < v4/2 {
		t.Errorf("only %d distinct prefixes for %d originated", len(prefixes), v4)
	}
	if len(s.Warnings()) != 0 {
		t.Errorf("clean build produced warnings: %+v", s.Warnings()[:min(3, len(s.Warnings()))])
	}
}

func TestBuildRIBsArtifacts(t *testing.T) {
	g := testGraph(t, topology.EraOf(2022, 1))
	in := BuildInfra(g, Config{Seed: 5, Artifacts: true})
	// Ensure at least one artifact peer of each interesting kind exists;
	// if the hash assignment missed one at this scale, force it.
	var havePriv, haveDup bool
	for _, cp := range in.AllPeers() {
		switch cp.Peer.Artifact {
		case ArtifactPrivateASN:
			havePriv = true
		case ArtifactDuplicates:
			haveDup = true
		}
	}
	if !havePriv {
		in.Collectors[0].Peers[0].Artifact = ArtifactPrivateASN
	}
	if !haveDup {
		in.Collectors[0].Peers[1].Artifact = ArtifactDuplicates
	}
	snap := buildSnapshot(t, g, in, nil)

	var sources []bgpstream.Source
	for name, data := range snap.Archives {
		sources = append(sources, bgpstream.BytesSource(name, data, bgp.Options{}))
	}
	elems, err := bgpstream.NewStream(nil, sources...).All()
	if err != nil {
		t.Fatal(err)
	}
	privSeen := map[uint32]int{}
	dupCheck := map[string]int{}
	for _, e := range elems {
		seq, _ := e.Path.Sequence()
		if len(seq) >= 2 && seq[1] == 65000 {
			privSeen[e.PeerASN]++
		}
		key := e.Collector + "|" + e.Prefix.String() + "|" + string(rune(e.PeerASN))
		dupCheck[key]++
	}
	if len(privSeen) == 0 {
		t.Error("private-ASN artifact not visible in data")
	}
	dups := 0
	for _, n := range dupCheck {
		if n > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("duplicate artifact not visible in data")
	}
}

func TestBuildRIBsOverlayChangesPaths(t *testing.T) {
	g := testGraph(t, topology.EraOf(2016, 1))
	in := BuildInfra(g, Config{Seed: 3})
	model := routing.ChurnModel{Seed: 9, UnitEventRate: 0.4, VPEventRate: 0.05, TransitFlipShare: 0.4}
	vps := in.FullFeedASNs()
	s1 := buildSnapshot(t, g, in, model.OverlayAt(g, 0, vps))
	s2 := BuildRIBs(g, in, model.OverlayAt(g, 30, vps), EpochOf(g.Era)+30*86400)
	same := true
	for name := range s1.Archives {
		if string(s1.Archives[name]) != string(s2.Archives[name]) {
			same = false
		}
	}
	if same {
		t.Error("30 days of churn left every archive identical")
	}
}

func TestBuildUpdates(t *testing.T) {
	g := testGraph(t, topology.EraOf(2018, 1))
	in := BuildInfra(g, Config{Seed: 3, Artifacts: true})
	cfg := UpdateConfig{
		Model:           routing.ChurnModel{Seed: 9, UnitEventRate: 0.6, VPEventRate: 0.05, TransitFlipShare: 0.4},
		FromT:           0,
		ToT:             4.0 / 24.0, // 4 hours
		BaseTime:        EpochOf(g.Era),
		FullMessageProb: 0.8,
		FlapRate:        0.05,
	}
	archives := BuildUpdates(g, in, cfg)
	if len(archives) != len(in.Collectors) {
		t.Fatalf("archives = %d", len(archives))
	}
	var sources []bgpstream.Source
	total := 0
	for name, data := range archives {
		total += len(data)
		sources = append(sources, bgpstream.BytesSource(name, data, bgp.Options{}))
	}
	if total == 0 {
		t.Fatal("no update data generated")
	}
	s := bgpstream.NewStream(nil, sources...)
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	ann, wd := 0, 0
	groupSizes := map[int]int{}
	lastTS := uint32(0)
	perCollector := map[string][]uint32{}
	for _, e := range elems {
		switch e.Type {
		case bgpstream.ElemAnnounce:
			ann++
			groupSizes[e.MsgIndex]++
		case bgpstream.ElemWithdraw:
			wd++
		}
		perCollector[e.Collector] = append(perCollector[e.Collector], e.Timestamp)
		_ = lastTS
	}
	if ann == 0 || wd == 0 {
		t.Fatalf("announcements=%d withdrawals=%d", ann, wd)
	}
	// Time-ordering within each collector.
	for name, ts := range perCollector {
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Fatalf("%s: timestamps unordered at %d", name, i)
			}
		}
	}
	// Some updates must carry multiple prefixes (atom-level moves).
	multi := 0
	for _, n := range groupSizes {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-prefix updates — atom-level correlation impossible")
	}
}

func TestEpochMonotone(t *testing.T) {
	prev := uint32(0)
	for e := topology.EraOf(2002, 1); e <= topology.EraOf(2024, 4); e++ {
		ts := EpochOf(e)
		if ts <= prev {
			t.Fatalf("epoch not monotone at era %v", e)
		}
		prev = ts
	}
}

func TestArtifactString(t *testing.T) {
	for a, want := range map[Artifact]string{
		ArtifactNone: "none", ArtifactAddPath: "addpath", ArtifactPrivateASN: "private-asn",
		ArtifactDuplicates: "duplicates", ArtifactStuck: "stuck", Artifact(99): "unknown",
	} {
		if a.String() != want {
			t.Errorf("Artifact(%d) = %q", a, a.String())
		}
	}
}
