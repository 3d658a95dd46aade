package collector

import (
	"bytes"
	"math"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/mrt"
	"repro/internal/routing"
	"repro/internal/topology"
)

// referenceArchive is the per-entry encoder BuildRIBs' memoized one
// must match byte for byte: every (prefix, peer) entry encodes its own
// attribute block and every record marshals into a fresh slice.
func referenceArchive(in *Infra, c *Collector, t *routeTable, ts uint32) []byte {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{CollectorID: c.ID, ViewName: c.Name}
	for _, p := range c.Peers {
		pit.Peers = append(pit.Peers, mrt.Peer{BGPID: p.Addr, Addr: p.Addr, ASN: p.ASN})
	}
	body, err := pit.Marshal()
	if err != nil {
		panic(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: ts, Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: body})
	seq := uint32(0)
	emit := func(pfx netip.Prefix, entries []mrt.RIBEntry) {
		if len(entries) == 0 {
			return
		}
		rib := &mrt.RIB{Sequence: seq, Prefix: pfx, Entries: entries}
		seq++
		b, err := rib.Marshal()
		if err != nil {
			panic(err)
		}
		w.WriteRecord(mrt.Record{Timestamp: ts, Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: b})
	}
	for pi, pfx := range t.prefixes {
		row := t.row(pi)
		label := prefixLabel(pfx)
		var entries []mrt.RIBEntry
		for idx, p := range c.Peers {
			id := row[t.cols[p.ASN]].id
			if id == aspath.Empty || !carries(in, p, label) {
				continue
			}
			path := t.paths.Seq(id)
			if p.Artifact == ArtifactPrivateASN {
				path = withPrivateASN(nil, path)
			}
			entries = append(entries, mrt.RIBEntry{PeerIndex: uint16(idx), Originated: ts - 3600, Attrs: ribAttrs(path)})
			if duplicated(in, p, label) {
				entries = append(entries, mrt.RIBEntry{PeerIndex: uint16(idx), Originated: ts - 3599, Attrs: ribAttrs(path)})
			}
		}
		emit(pfx, entries)
	}
	for idx, p := range c.Peers {
		for j := range ghostCount(p, t.routed) {
			emit(ghostPrefix(p.ASN, j), []mrt.RIBEntry{{PeerIndex: uint16(idx), Originated: ts - 3600, Attrs: ribAttrs(ghostPath(in, p, j))}})
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestBuildRIBsMatchesPerEntryEncoding: the per-path attribute memo,
// the reused record and entry buffers and the shared archive buffer
// leave every archive byte-identical to encoding each entry on its own,
// in a 2024Q1 world whose peers include private-ASN, duplicate and
// ghost artifacts.
func TestBuildRIBsMatchesPerEntryEncoding(t *testing.T) {
	// The benchmark's 2024Q1 world at seed 7 and scale 0.004.
	p := topology.DefaultParams(7)
	p.Scale = 0.004
	g := topology.Generate(p, topology.EraOf(2024, 1))
	in := BuildInfra(g, Config{Seed: 8, Artifacts: true, VPScale: math.Pow(p.Scale, 0.4)})
	// At this scale no peer draws the private-ASN artifact: give it to
	// the first plain peer.
	for _, cp := range in.AllPeers() {
		if cp.Peer.Artifact == ArtifactNone {
			cp.Peer.Artifact = ArtifactPrivateASN
			break
		}
	}
	model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 0.05,
		TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: 0.01}
	ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())
	ts := EpochOf(g.Era)

	snap := BuildRIBs(g, in, ov, ts)
	rt := buildRouteTable(g, in, ov, aspath.NewTable())
	var priv, dup, ghost bool
	for _, cp := range in.AllPeers() {
		priv = priv || cp.Peer.Artifact == ArtifactPrivateASN
		dup = dup || cp.Peer.Artifact == ArtifactDuplicates
		ghost = ghost || ghostCount(cp.Peer, rt.routed) > 0
	}
	if !priv || !dup || !ghost {
		t.Fatalf("world lacks an artifact: private-ASN %v, duplicates %v, ghosts %v", priv, dup, ghost)
	}
	if len(snap.Archives) != len(in.Collectors) {
		t.Fatalf("%d archives for %d collectors", len(snap.Archives), len(in.Collectors))
	}
	for _, c := range in.Collectors {
		got, want := snap.Archives[c.Name], referenceArchive(in, c, rt, ts)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: archive differs from the per-entry encoding (%d vs %d bytes)", c.Name, len(got), len(want))
		}
	}
}
