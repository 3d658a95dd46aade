package collector

import (
	"bytes"
	"math"
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
	t := buildRouteTable(g, in, ov, aspath.NewTable())
	for _, c := range in.Collectors {
		snap.Archives[c.Name] = buildArchive(in, c, t, ts)
	}
	return snap
}

// routeEntry is a peer's merged best route for one prefix, its path
// interned in the route table's paths; aspath.Empty means the peer has
// no route. A cell is 8 bytes and holds no pointer, so the garbage
// collector never scans the matrix. Route costs are hop counts plus
// prepends, far below the int16 range.
type routeEntry struct {
	id    aspath.ID
	cost  int16
	class routing.Class
}

// routeTable holds every distinct peer's merged best route for every
// prefix some unit announces: the prefixes in prefixset order and a
// dense prefix-major cell matrix with one column per peer ASN. Both
// BuildRIBs and BuildFeeds read their routes from it.
type routeTable struct {
	paths    *aspath.Table
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

// buildRouteTable routes every unit at every distinct peer that exports
// at least one of its prefixes, interning each unit's route at each
// such peer into paths once, however many prefixes the unit has. A cell
// no peer of its column exports stays empty, but still counts toward
// routed when the unit has a route there. Stuck peers route on the
// pristine (overlay-free) graph — their feed is stale.
func buildRouteTable(g *topology.Graph, in *Infra, ov *routing.Overlay, paths *aspath.Table) *routeTable {
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
	t := &routeTable{paths: paths, cols: make(map[uint32]int, len(seen)), nVPs: len(seen)}
	for i, vp := range vps {
		t.cols[vp] = i
	}
	for i, vp := range stuckVPs {
		t.cols[vp] = len(vps) + i
	}
	ex := newColExport(in, t)

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
	reached := make([]bool, len(t.prefixes))

	merge := func(c *routeEntry, cand routeEntry) {
		if c.id == aspath.Empty || t.better(cand, *c) {
			*c = cand
		}
	}
	// A VP's runner-up route is computed at most once per unit, and only
	// when its shift rule selects one of the unit's exported prefixes.
	eng := routing.NewEngine(g, ov)
	shift := newVPShift(ov, vps)
	best := make([]routeEntry, len(vps))
	alts := make([]routeEntry, len(vps))
	altDone := make([]bool, len(vps))
	var ue unitExports
	for i, u := range g.Groups {
		prefixes := unitPrefixes[i]
		if len(prefixes) == 0 {
			continue
		}
		ue.load(t, ex, prefixes, 0, len(vps))
		if t.routeUnit(eng, u, vps, ue.want, best) {
			for _, r := range ue.rows {
				reached[r] = true
			}
		}
		clear(altDone)
		for j, r := range ue.rows {
			row := t.row(r)
			label := ue.labels[j]
			for v, e := range best {
				if e.id == aspath.Empty || !ue.exported(j, v) {
					continue
				}
				if shift.selects(v, label) {
					if !altDone[v] {
						alt, _ := eng.AltRouteAt(vps[v])
						alts[v] = t.entry(alt)
						altDone[v] = true
					}
					if alts[v].id != aspath.Empty {
						e = alts[v]
					}
				}
				merge(&row[v], e)
			}
		}
	}
	if len(stuckVPs) > 0 {
		// Stuck peers serve the pristine world: no overlay, no moves.
		stale := routing.NewEngine(g, nil)
		best := make([]routeEntry, len(stuckVPs))
		for _, u := range g.Groups {
			ue.load(t, ex, u.Prefixes, len(vps), len(stuckVPs))
			if t.routeUnit(stale, u, stuckVPs, ue.want, best) {
				for _, r := range ue.rows {
					reached[r] = true
				}
			}
			for j, r := range ue.rows {
				row := t.row(r)[len(vps):]
				for v, e := range best {
					if e.id != aspath.Empty && ue.exported(j, v) {
						merge(&row[v], e)
					}
				}
			}
		}
	}
	for _, ok := range reached {
		if ok {
			t.routed++
		}
	}
	return t
}

// colExport is, per route-table column, whether some peer exports a
// prefix there. A column's peers share its ASN and with it the carry
// hash of every prefix, so the column exports a prefix when one of them
// is a full feed or the hash falls under the largest partial share
// among them: exactly when carries holds for at least one of its peers.
type colExport struct {
	seed  uint64
	asn   []uint32
	full  []bool
	share []float64
}

func newColExport(in *Infra, t *routeTable) *colExport {
	ex := &colExport{seed: in.Seed, asn: make([]uint32, t.nVPs), full: make([]bool, t.nVPs), share: make([]float64, t.nVPs)}
	for _, cp := range in.AllPeers() {
		c := t.cols[cp.Peer.ASN]
		ex.asn[c] = cp.Peer.ASN
		ex.full[c] = ex.full[c] || cp.Peer.FullFeed
		ex.share[c] = max(ex.share[c], cp.Peer.PartialShare)
	}
	return ex
}

// exports reports whether column c exports the prefix with this label.
func (ex *colExport) exports(c int, label uint64) bool {
	return ex.full[c] || topology.ChainUnit(ex.seed, 0xfeed, uint64(ex.asn[c]), label) < ex.share[c]
}

// unitExports is one unit's prefixes resolved against a run of
// columns: their rows and labels, which (prefix, column) cells some
// peer exports, and which columns export any of them. Its slices are
// reused from unit to unit.
type unitExports struct {
	rows   []int
	labels []uint64
	cells  []bool // len(rows) × len(want)
	want   []bool
}

// load resolves prefixes against the n columns starting at column lo.
func (ue *unitExports) load(t *routeTable, ex *colExport, prefixes []netip.Prefix, lo, n int) {
	ue.rows, ue.labels, ue.cells = ue.rows[:0], ue.labels[:0], ue.cells[:0]
	ue.want = append(ue.want[:0], make([]bool, n)...)
	for _, pfx := range prefixes {
		r, _ := slices.BinarySearchFunc(t.prefixes, pfx, prefixset.ComparePrefixes)
		label := prefixLabel(pfx)
		ue.rows = append(ue.rows, r)
		ue.labels = append(ue.labels, label)
		for v := range n {
			ok := ex.exports(lo+v, label)
			ue.cells = append(ue.cells, ok)
			ue.want[v] = ue.want[v] || ok
		}
	}
}

// exported reports whether the j-th prefix is exported at column v of
// the loaded run.
func (ue *unitExports) exported(j, v int) bool { return ue.cells[j*len(ue.want)+v] }

// entry interns r's path into a route-table cell; a route without a
// path becomes the empty cell.
func (t *routeTable) entry(r routing.VPRoute) routeEntry {
	return routeEntry{id: t.paths.Intern(r.Path), cost: int16(min(r.Cost, math.MaxInt16)), class: r.Class}
}

// routeUnit computes u's best route at every VP that want selects into
// out, interning each path once; a VP not selected or with no route
// gets the empty cell. It reports whether u has a route at any of vps,
// probing the unselected VPs without interning when no selected one
// has a route.
func (t *routeTable) routeUnit(eng *routing.Engine, u *topology.PolicyGroup, vps []uint32, want []bool, out []routeEntry) bool {
	eng.ComputeUnit(u)
	reached := false
	for v, vp := range vps {
		out[v] = routeEntry{}
		if want[v] {
			r, ok := eng.RouteAt(vp)
			out[v] = t.entry(r)
			reached = reached || ok
		}
	}
	for v, vp := range vps {
		if reached {
			break
		}
		if !want[v] {
			_, reached = eng.RouteAt(vp)
		}
	}
	return reached
}

// carries reports whether peer p exports the prefix with this label: a
// partial feed drops a hash-selected share of prefixes.
func carries(in *Infra, p *Peer, label uint64) bool {
	return p.FullFeed || topology.ChainUnit(in.Seed, 0xfeed, uint64(p.ASN), label) < p.PartialShare
}

// withPrivateASN appends to dst the path a private-ASN peer reports for
// path: AS65000 inserted after the peer's own ASN. It depends on the
// path alone.
func withPrivateASN(dst, path aspath.Seq) aspath.Seq {
	dst = append(dst, path[0], 65000)
	return append(dst, path[1:]...)
}

// duplicated reports whether a duplicates-artifact peer sends the
// prefix with this label twice.
func duplicated(in *Infra, p *Peer, label uint64) bool {
	return p.Artifact == ArtifactDuplicates && topology.ChainUnit(in.Seed, 0xd0b1, uint64(p.ASN), label) < 0.15
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
	fakeOrigin := uint32(900000 + topology.ChainPick(100000, in.Seed, 0x6057, uint64(p.ASN), uint64(j)))
	return aspath.Seq{p.ASN, fakeOrigin}
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
		(topology.ChainUnit(s.sticky[v], label) < s.share*0.7 || topology.ChainUnit(s.token[v], label) < s.share*0.3)
}

// better orders candidate routes for MOAS merging: class, then cost,
// then the lexicographically lower path for a total order.
func (t *routeTable) better(a, b routeEntry) bool {
	if a.class != b.class {
		return a.class > b.class
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return slices.Compare(t.paths.Seq(a.id), t.paths.Seq(b.id)) < 0
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
		label := prefixLabel(pfx)
		var entries []mrt.RIBEntry
		for idx, p := range c.Peers {
			id := row[cols[idx]].id
			if id == aspath.Empty || !carries(in, p, label) {
				continue
			}
			path := t.paths.Seq(id)
			if p.Artifact == ArtifactPrivateASN {
				path = withPrivateASN(nil, path)
			}
			attrs := ribAttrs(path)
			entries = append(entries, mrt.RIBEntry{PeerIndex: uint16(idx), Originated: ts - 3600, Attrs: attrs})
			if duplicated(in, p, label) {
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
