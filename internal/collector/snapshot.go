package collector

import (
	"bytes"
	"net/netip"
	"slices"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/prefixset"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Snapshot is one RIB dump across all collectors.
type Snapshot struct {
	Era       topology.Era
	Timestamp uint32
	// Archives maps collector name to its MRT TABLE_DUMP_V2 archive.
	Archives map[string][]byte
}

// BuildRIBs computes every peer's routing table under the overlay and
// dumps per-collector MRT archives. MOAS prefixes (present in several
// units) are merged per peer by the BGP decision order: class, then
// cost, then lowest path lexicographically.
func BuildRIBs(g *topology.Graph, in *Infra, ov *routing.Overlay, ts uint32) *Snapshot {
	snap := &Snapshot{Era: g.Era, Timestamp: ts, Archives: make(map[string][]byte)}
	t := buildRouteTable(g, in, ov)
	for _, c := range in.Collectors {
		snap.Archives[c.Name] = buildArchive(in, c, t, ts)
	}
	return snap
}

// routeEntry is a peer's merged best route for one prefix; a nil path
// means the peer has no route. path leads so a cell packs into 32 bytes.
type routeEntry struct {
	path  aspath.Seq
	cost  int32
	class routing.Class
}

// routeTable holds every distinct peer's merged best route for every
// prefix some unit announces: the prefixes in prefixset order and a
// dense prefix-major cell matrix with one column per peer ASN. Both
// BuildRIBs and BuildFeeds read their routes from it.
type routeTable struct {
	prefixes []netip.Prefix
	cols     map[uint32]int // peer ASN → column
	nVPs     int
	cells    []routeEntry // len(prefixes) × nVPs
	// routed counts the prefixes at least one peer has a route for;
	// the rest were indexed but no peer reaches them.
	routed int
}

// row returns prefix p's cells, one per column.
func (t *routeTable) row(p int) []routeEntry {
	lo := p * t.nVPs
	return t.cells[lo : lo+t.nVPs : lo+t.nVPs]
}

// rowOf returns pfx's cells; pfx must be indexed.
func (t *routeTable) rowOf(pfx netip.Prefix) []routeEntry {
	p, _ := slices.BinarySearchFunc(t.prefixes, pfx, prefixset.ComparePrefixes)
	return t.row(p)
}

// buildRouteTable routes every unit at every distinct peer. Stuck peers
// route on the pristine (overlay-free) graph — their feed is stale.
func buildRouteTable(g *topology.Graph, in *Infra, ov *routing.Overlay) *routeTable {
	seen := map[uint32]bool{}
	var vps, stuckVPs []uint32
	for _, cp := range in.AllPeers() {
		if seen[cp.Peer.ASN] {
			continue
		}
		seen[cp.Peer.ASN] = true
		if cp.Peer.Artifact == ArtifactStuck {
			stuckVPs = append(stuckVPs, cp.Peer.ASN)
		} else {
			vps = append(vps, cp.Peer.ASN)
		}
	}
	slices.Sort(vps)
	slices.Sort(stuckVPs)
	t := &routeTable{cols: make(map[uint32]int, len(seen)), nVPs: len(seen)}
	for i, vp := range vps {
		t.cols[vp] = i
	}
	for i, vp := range stuckVPs {
		t.cols[vp] = len(vps) + i
	}

	// Index every prefix the merge loops below touch, so the cell
	// matrix is allocated once and each (unit, prefix) pair finds its
	// row with one search shared by all peers.
	moves := routing.BuildMoveSet(ov)
	unitPrefixes := make([][]netip.Prefix, len(g.Groups))
	n := 0
	for i, u := range g.Groups {
		unitPrefixes[i] = moves.UnitPrefixes(u)
		n += len(unitPrefixes[i])
		if len(stuckVPs) > 0 {
			n += len(u.Prefixes)
		}
	}
	all := make([]netip.Prefix, 0, n)
	for i, u := range g.Groups {
		all = append(all, unitPrefixes[i]...)
		if len(stuckVPs) > 0 {
			all = append(all, u.Prefixes...)
		}
	}
	prefixset.SortPrefixes(all)
	t.prefixes = slices.Clip(slices.Compact(all))
	t.cells = make([]routeEntry, len(t.prefixes)*t.nVPs)

	merge := func(c *routeEntry, r routing.VPRoute) {
		cand := routeEntry{path: r.Path, cost: int32(r.Cost), class: r.Class}
		if c.path == nil || better(cand, *c) {
			*c = cand
		}
	}
	// A VP's runner-up route is computed at most once per unit, and only
	// when its shift rule selects one of the unit's prefixes.
	eng := routing.NewEngine(g, ov)
	shift := newVPShift(ov, vps)
	routes := make([]routing.VPRoute, len(vps))
	alts := make([]routing.VPRoute, len(vps))
	altDone := make([]bool, len(vps))
	for i, u := range g.Groups {
		prefixes := unitPrefixes[i]
		if len(prefixes) == 0 {
			continue
		}
		routeAll(eng, u, vps, routes)
		clear(altDone)
		for _, pfx := range prefixes {
			row := t.rowOf(pfx)
			label := prefixLabel(pfx)
			for v, r := range routes {
				if r.Path == nil {
					continue
				}
				if shift.selects(v, label) {
					if !altDone[v] {
						alts[v], _ = eng.AltRouteAt(vps[v])
						altDone[v] = true
					}
					if alts[v].Path != nil {
						r = alts[v]
					}
				}
				merge(&row[v], r)
			}
		}
	}
	if len(stuckVPs) > 0 {
		// Stuck peers serve the pristine world: no overlay, no moves.
		stale := routing.NewEngine(g, nil)
		routes := make([]routing.VPRoute, len(stuckVPs))
		for _, u := range g.Groups {
			routeAll(stale, u, stuckVPs, routes)
			for _, pfx := range u.Prefixes {
				row := t.rowOf(pfx)[len(vps):]
				for v, r := range routes {
					if r.Path != nil {
						merge(&row[v], r)
					}
				}
			}
		}
	}
	for p := range t.prefixes {
		if slices.ContainsFunc(t.row(p), func(c routeEntry) bool { return c.path != nil }) {
			t.routed++
		}
	}
	return t
}

// peerPath is the path peer p reports for pfx given its merged best
// route, or nil when p does not carry pfx: a partial feed drops a
// hash-selected share of prefixes, and a private-ASN peer inserts
// AS65000 after its own ASN.
func peerPath(in *Infra, p *Peer, pfx netip.Prefix, path aspath.Seq) aspath.Seq {
	if path == nil {
		return nil
	}
	if !p.FullFeed && unitc(in.Seed, 0xfeed, uint64(p.ASN), prefixLabel(pfx)) >= p.PartialShare {
		return nil
	}
	if p.Artifact == ArtifactPrivateASN && len(path) > 0 {
		mod := make(aspath.Seq, 0, len(path)+1)
		mod = append(mod, path[0], 65000)
		path = append(mod, path[1:]...)
	}
	return path
}

// duplicated reports whether a duplicates-artifact peer sends pfx twice.
func duplicated(in *Infra, p *Peer, pfx netip.Prefix) bool {
	return p.Artifact == ArtifactDuplicates && unitc(in.Seed, 0xd0b1, uint64(p.ASN), prefixLabel(pfx)) < 0.15
}

// ghostCount is how many ghost prefixes peer p fabricates over a table
// of routed prefixes.
func ghostCount(p *Peer, routed int) int {
	if p.GhostShare <= 0 {
		return 0
	}
	return int(p.GhostShare * float64(routed) * p.PartialShare)
}

// ghostPath is peer p's fabricated path for its j-th ghost prefix.
func ghostPath(in *Infra, p *Peer, j int) aspath.Seq {
	fakeOrigin := uint32(900000 + pickc(100000, in.Seed, 0x6057, uint64(p.ASN), uint64(j)))
	return aspath.Seq{p.ASN, fakeOrigin}
}

// routeAll computes u's best route at every VP into out; a VP with no
// route gets a nil Path.
func routeAll(eng *routing.Engine, u *topology.PolicyGroup, vps []uint32, out []routing.VPRoute) {
	eng.ComputeUnit(u)
	for i, vp := range vps {
		out[i], _ = eng.RouteAt(vp)
	}
}

// vpShift holds the VPs' route-shift tokens, by column. A shifted VP
// reports its runner-up route, where it has one, for a small
// hash-selected share of prefixes. The set is 70% sticky (stable across
// the VP's events) and 30% churning (re-drawn each event), so
// consecutive snapshots differ by a bounded sliver — localized split
// events without compounding instability. A nil *vpShift shifts nothing.
type vpShift struct {
	token, sticky []uint64
	share         float64
}

// newVPShift reads the overlay's shift tokens for vps, or returns nil
// when no VP is shifted.
func newVPShift(ov *routing.Overlay, vps []uint32) *vpShift {
	if ov == nil || ov.VPShiftShare <= 0 {
		return nil
	}
	s := &vpShift{token: make([]uint64, len(vps)), sticky: make([]uint64, len(vps)), share: ov.VPShiftShare}
	shifted := false
	for v, vp := range vps {
		if s.token[v] = ov.VPShift[vp]; s.token[v] != 0 {
			s.sticky[v] = ov.VPSticky[vp]
			shifted = true
		}
	}
	if !shifted {
		return nil
	}
	return s
}

// selects reports whether VP column v shifts the prefix with this label.
func (s *vpShift) selects(v int, label uint64) bool {
	return s != nil && s.token[v] != 0 &&
		(unitc(s.sticky[v], label) < s.share*0.7 || unitc(s.token[v], label) < s.share*0.3)
}

// better orders candidate routes for MOAS merging.
func better(a, b routeEntry) bool {
	if a.class != b.class {
		return a.class > b.class
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	// Lexicographic path comparison for a total order.
	n := len(a.path)
	if len(b.path) < n {
		n = len(b.path)
	}
	for i := 0; i < n; i++ {
		if a.path[i] != b.path[i] {
			return a.path[i] < b.path[i]
		}
	}
	return len(a.path) < len(b.path)
}

// buildArchive writes one collector's TABLE_DUMP_V2 archive.
func buildArchive(in *Infra, c *Collector, t *routeTable, ts uint32) []byte {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)

	pit := &mrt.PeerIndexTable{CollectorID: c.ID, ViewName: c.Name}
	cols := make([]int, len(c.Peers))
	for idx, p := range c.Peers {
		pit.Peers = append(pit.Peers, mrt.Peer{BGPID: p.Addr, Addr: p.Addr, ASN: p.ASN})
		cols[idx] = t.cols[p.ASN]
	}
	body, err := pit.Marshal()
	if err != nil {
		panic("collector: peer index table: " + err.Error())
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
			panic("collector: rib: " + err.Error())
		}
		w.WriteRecord(mrt.Record{Timestamp: ts, Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: b})
	}

	for pi, pfx := range t.prefixes {
		row := t.row(pi)
		var entries []mrt.RIBEntry
		for idx, p := range c.Peers {
			path := peerPath(in, p, pfx, row[cols[idx]].path)
			if path == nil {
				continue
			}
			attrs := ribAttrs(path)
			entries = append(entries, mrt.RIBEntry{PeerIndex: uint16(idx), Originated: ts - 3600, Attrs: attrs})
			if duplicated(in, p, pfx) {
				entries = append(entries, mrt.RIBEntry{PeerIndex: uint16(idx), Originated: ts - 3599, Attrs: attrs})
			}
		}
		emit(pfx, entries)
	}

	// Ghost prefixes: fabricated, visible only at this peer — the very
	// localized announcements the visibility filter removes.
	for idx, p := range c.Peers {
		for j := range ghostCount(p, t.routed) {
			attrs := ribAttrs(ghostPath(in, p, j))
			emit(ghostPrefix(p.ASN, j), []mrt.RIBEntry{{PeerIndex: uint16(idx), Originated: ts - 3600, Attrs: attrs}})
		}
	}

	if err := w.Flush(); err != nil {
		panic("collector: flush: " + err.Error())
	}
	return buf.Bytes()
}

// ribAttrs encodes the standard attribute block for a RIB entry.
func ribAttrs(path aspath.Seq) []byte {
	attrs := []bgp.Attr{
		bgp.Origin(bgp.OriginIGP),
		bgp.ASPath{Path: aspath.FromSeq(path)},
	}
	b, err := bgp.MarshalAttributes(attrs, bgp.Options{AS4: true})
	if err != nil {
		panic("collector: attrs: " + err.Error())
	}
	return b
}

// ghostPrefix fabricates a per-peer /24 in a reserved region.
func ghostPrefix(asn uint32, j int) netip.Prefix {
	// 176.0.0.0 region, disjoint from topology allocations.
	slot := uint32(0xB0000000>>8) + (asn%100000)*64 + uint32(j)
	v := slot << 8
	b := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	return netip.PrefixFrom(netip.AddrFrom4(b), 24)
}

// prefixLabel hashes a prefix into a stable label for unitc.
func prefixLabel(p netip.Prefix) uint64 {
	a := p.Addr().As16()
	hi := uint64(a[0])<<56 | uint64(a[1])<<48 | uint64(a[2])<<40 | uint64(a[3])<<32 |
		uint64(a[4])<<24 | uint64(a[5])<<16 | uint64(a[6])<<8 | uint64(a[7])
	lo := uint64(a[8])<<56 | uint64(a[9])<<48 | uint64(a[10])<<40 | uint64(a[11])<<32 |
		uint64(a[12])<<24 | uint64(a[13])<<16 | uint64(a[14])<<8 | uint64(a[15])
	return hi ^ lo*31 ^ uint64(p.Bits())
}
