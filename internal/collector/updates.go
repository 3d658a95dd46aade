package collector

import (
	"bytes"
	"cmp"
	"net/netip"
	"slices"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/routing"
	"repro/internal/topology"
)

// UpdateConfig controls update-stream synthesis.
type UpdateConfig struct {
	// Model is the churn process (shared with snapshot overlays so
	// updates and RIB diffs agree).
	Model routing.ChurnModel
	// FromT/ToT bound the window in days since the era epoch.
	FromT, ToT float64
	// BaseTime is the Unix timestamp corresponding to FromT.
	BaseTime uint32
	// FullMessageProb is the probability that one routing event emits
	// all of a unit's prefixes in a single UPDATE (the atom-level
	// update-correlation signal); otherwise the batch is split.
	FullMessageProb float64
	// FlapRate is the per-prefix rate (events/day) of single-prefix
	// noise flaps.
	FlapRate float64
	// Peers scopes the archives to these peer ASNs (nil = every peer).
	// Out-of-scope peers are still routed, but their messages are never
	// built: each one only seals the last in-scope message at its
	// instant, so packing never merges two in-scope messages the
	// unscoped stream kept apart, and an in-scope peer's records are
	// byte-identical to its records in the unscoped archive.
	Peers map[uint32]bool
}

// inScope reports whether a peer's messages reach the archives.
func (cfg *UpdateConfig) inScope(asn uint32) bool {
	return cfg.Peers == nil || cfg.Peers[asn]
}

// message is one pending UPDATE before serialization.
type message struct {
	t        float64
	peer     *Peer
	withdraw bool
	// sealed forbids packing the next message into this one: an
	// out-of-scope message sat between them in the unscoped stream.
	sealed   bool
	prefixes []netip.Prefix
	path     aspath.Seq
	order    int // stable sort tiebreak
}

// msgBuilder collects a window's pending messages in emission order.
// Scoped (UpdateConfig.Peers set), it materializes in-scope messages
// only: an out-of-scope message seals the last in-scope message added
// at the same instant, which is exactly the message it would have
// followed after the (t, order) sort.
type msgBuilder struct {
	g    *topology.Graph
	cfg  *UpdateConfig
	msgs []message
	// lastAt maps an instant to the index of the last in-scope message
	// added at it; nil when the window is unscoped.
	lastAt map[float64]int
}

func newMsgBuilder(g *topology.Graph, cfg *UpdateConfig) *msgBuilder {
	b := &msgBuilder{g: g, cfg: cfg}
	if cfg.Peers != nil {
		b.lastAt = map[float64]int{}
	}
	return b
}

// add queues one in-scope message.
func (b *msgBuilder) add(t float64, peer *Peer, withdraw bool, prefixes []netip.Prefix, path aspath.Seq) {
	if b.lastAt != nil {
		b.lastAt[t] = len(b.msgs)
	}
	b.msgs = append(b.msgs, message{t: t, peer: peer, withdraw: withdraw, prefixes: prefixes, path: path, order: len(b.msgs)})
}

// single queues a one-prefix message, or seals its instant if peer is
// out of scope.
func (b *msgBuilder) single(t float64, peer *Peer, withdraw bool, pfx netip.Prefix, path aspath.Seq) {
	if !b.cfg.inScope(peer.ASN) {
		b.seal(t)
		return
	}
	b.add(t, peer, withdraw, []netip.Prefix{pfx}, path)
}

// seal marks the last in-scope message at instant t as unmergeable
// with its successor.
func (b *msgBuilder) seal(t float64) {
	if i, ok := b.lastAt[t]; ok {
		b.msgs[i].sealed = true
	}
}

// open reports whether instant t holds an in-scope message that a
// later one could still pack into.
func (b *msgBuilder) open(t float64) bool {
	i, ok := b.lastAt[t]
	return ok && !b.msgs[i].sealed
}

// skips reports whether peer's chunked messages for one event of unit
// unitID at t, over at most n prefixes, would change nothing: peer is
// out of scope and no instant such a batch can reach is open. Callers
// then need not even route the unit at peer.
func (b *msgBuilder) skips(peer *Peer, unitID int, t float64, n int) bool {
	if b.cfg.inScope(peer.ASN) {
		return false
	}
	// A batch of n' <= n prefixes reaches at most max(parts,
	// ceil(n/200)) chunk instants, which chunked offsets by the
	// same sums.
	reach := max(2+topology.ChainPick(2, uint64(unitID), 0xc4c5, uint64(t*86400)), (n+maxPerMsg-1)/maxPerMsg)
	dt := 0.0
	for range reach {
		if b.open(t + dt) {
			return false
		}
		dt += chunkGap
	}
	return true
}

// unit queues peer's messages for one event of unit unitID at t: path
// announced (nil: withdrawn) for the prefixes peer carries, in
// chunks. An out-of-scope peer's chunks only seal their instants.
func (b *msgBuilder) unit(unitID int, t float64, peer *Peer, path aspath.Seq, prefixes []netip.Prefix) {
	if !b.cfg.inScope(peer.ASN) {
		n := 0
		for _, pfx := range prefixes {
			if streamCarries(b.g, peer, pfx) {
				n++
			}
		}
		chunked(b.cfg, unitID, t, n, func(_, _ int, dt float64) { b.seal(t + dt) })
		return
	}
	pfxs := peerPrefixes(b.g, peer, prefixes)
	chunked(b.cfg, unitID, t, len(pfxs), func(lo, hi int, dt float64) {
		b.add(t+dt, peer, path == nil, pfxs[lo:hi], path)
	})
}

// BuildUpdates synthesizes the BGP4MP update archives for the window:
// unit policy events re-announce whole units, VP local-preference events
// re-announce everything that changed at that VP, and per-prefix flaps
// add noise. Returns collector name → MRT bytes.
func BuildUpdates(g *topology.Graph, in *Infra, cfg UpdateConfig) map[string][]byte {
	vps, peersByASN := updateVPs(in)

	base := cfg.Model.OverlayAt(g, cfg.FromT, vps)
	moves := routing.BuildMoveSet(base)
	eng := routing.NewEngine(g, base)
	b := newMsgBuilder(g, &cfg)

	// Unit policy events (clocked per policy signature, so identically
	// configured sibling groups change and re-announce together).
	for _, u := range g.Groups {
		v1 := cfg.Model.UnitVersion(u, cfg.FromT)
		v2 := cfg.Model.UnitVersion(u, cfg.ToT)
		if v2 == v1 {
			continue
		}
		before := eng.PathsAt(u, vps)
		beforeCopy := make([]aspath.Seq, len(before))
		for i := range before {
			beforeCopy[i] = before[i].Path
		}
		vPrev := v1
		for k := v1 + 1; k <= v2; k++ {
			t := cfg.Model.UnitEventTime(u, k)
			if t < cfg.FromT {
				t = cfg.FromT
			}
			cfg.Model.ApplyUnitVersion(g, base, u, vPrev, k)
			vPrev = k
			after := eng.PathsAt(u, vps)
			emitDiff(b, t, u, moves, vps, peersByASN, beforeCopy, after)
			for i := range after {
				beforeCopy[i] = after[i].Path
			}
		}
	}

	// VP local-preference events: everything that changed at that VP.
	for _, vp := range vps {
		v1 := cfg.Model.VPVersion(vp, cfg.FromT)
		v2 := cfg.Model.VPVersion(vp, cfg.ToT)
		for k := v1 + 1; k <= v2; k++ {
			t := cfg.Model.VPEventTime(vp, k)
			if t < cfg.FromT {
				t = cfg.FromT
			}
			emitVPEvent(b, eng, base, moves, t, vp, peersByASN, k)
		}
	}

	// Attribute refreshes: whole-group re-announcements with unchanged
	// paths (the dominant record type in real update streams).
	emitRefreshes(b, eng, moves, vps, peersByASN)

	// Prefix reassignment events.
	emitMoves(b, eng, vps, peersByASN)

	// Single-prefix flaps.
	emitFlaps(b, eng, vps, peersByASN)

	return serialize(in, cfg, b.msgs)
}

// updateVPs lists distinct peer ASNs (stuck peers emit no updates — a
// stale feed is silent) and indexes peers by ASN.
func updateVPs(in *Infra) ([]uint32, map[uint32]*Peer) {
	peersByASN := map[uint32]*Peer{}
	var vps []uint32
	for _, cp := range in.AllPeers() {
		p := cp.Peer
		if _, ok := peersByASN[p.ASN]; ok {
			continue
		}
		peersByASN[p.ASN] = p
		if p.Artifact != ArtifactStuck {
			vps = append(vps, p.ASN)
		}
	}
	slices.Sort(vps)
	return vps, peersByASN
}

// lazyRoutes serves one unit's paths at vps, routing the unit on first
// use and each VP only when asked, so an event can skip the peers
// msgBuilder.skips. Nothing else may route on eng while it is in use.
type lazyRoutes struct {
	eng    *routing.Engine
	vps    []uint32
	u      *topology.PolicyGroup
	routed bool
	paths  []aspath.Seq
	done   []bool
}

func newLazyRoutes(eng *routing.Engine, vps []uint32) *lazyRoutes {
	return &lazyRoutes{eng: eng, vps: vps, paths: make([]aspath.Seq, len(vps)), done: make([]bool, len(vps))}
}

// reset switches to unit u without routing it.
func (r *lazyRoutes) reset(u *topology.PolicyGroup) {
	r.u, r.routed = u, false
	clear(r.done)
}

// at returns the unit's path at vps[i], nil if it has no route there.
func (r *lazyRoutes) at(i int) aspath.Seq {
	if !r.routed {
		r.eng.ComputeUnit(r.u)
		r.routed = true
	}
	if !r.done[i] {
		rt, _ := r.eng.RouteAt(r.vps[i])
		r.paths[i], r.done[i] = rt.Path, true
	}
	return r.paths[i]
}

// emitDiff turns one unit's before/after paths into per-peer messages.
func emitDiff(b *msgBuilder, t float64, u *topology.PolicyGroup, moves *routing.MoveSet, vps []uint32,
	peers map[uint32]*Peer, before []aspath.Seq, after []routing.VPRoute) {
	for i, vp := range vps {
		if before[i].Equal(after[i].Path) {
			continue
		}
		b.unit(u.ID, t, peers[vp], after[i].Path, moves.UnitPrefixes(u))
	}
}

// emitVPEvent recomputes every unit at one VP around its local event.
// eng routes over base, whose salt for vp it sets before each pass.
// Leaves the salt at its post-event value: later events see the new
// preference, at this VP and at every VP routed through it.
func emitVPEvent(b *msgBuilder, eng *routing.Engine, base *routing.Overlay, moves *routing.MoveSet,
	t float64, vp uint32, peers map[uint32]*Peer, version int) {
	g, cfg := b.g, b.cfg
	saltBefore := cfg.Model.VPSaltAt(vp, version-1)
	saltAfter := cfg.Model.VPSaltAt(vp, version)

	setSalt := func(s uint64) {
		if s == 0 {
			delete(base.VPSalt, vp)
		} else {
			base.VPSalt[vp] = s
		}
	}
	if !cfg.inScope(vp) {
		// Its messages would not be built, and their event times are
		// its own, so they seal nothing in scope: skip both sweeps.
		setSalt(saltAfter)
		return
	}
	setSalt(saltBefore)
	beforePaths := make([]aspath.Seq, len(g.Groups))
	for _, u := range g.Groups {
		eng.ComputeUnit(u)
		r, _ := eng.RouteAt(vp)
		beforePaths[u.ID] = r.Path
	}
	setSalt(saltAfter)
	for _, u := range g.Groups {
		eng.ComputeUnit(u)
		r, _ := eng.RouteAt(vp)
		if beforePaths[u.ID].Equal(r.Path) {
			continue
		}
		b.unit(u.ID, t, peers[vp], r.Path, moves.UnitPrefixes(u))
	}
}

// emitRefreshes re-announces whole units with their current paths at
// attribute-refresh events.
func emitRefreshes(b *msgBuilder, eng *routing.Engine, moves *routing.MoveSet, vps []uint32, peers map[uint32]*Peer) {
	g, cfg := b.g, b.cfg
	if cfg.Model.RefreshRate <= 0 {
		return
	}
	routes := newLazyRoutes(eng, vps)
	for _, u := range g.Groups {
		v1 := cfg.Model.RefreshVersion(u, cfg.FromT)
		v2 := cfg.Model.RefreshVersion(u, cfg.ToT)
		if v2 == v1 {
			continue
		}
		routes.reset(u)
		prefixes := moves.UnitPrefixes(u)
		for k := v1 + 1; k <= v2; k++ {
			t := cfg.Model.RefreshEventTime(u, k)
			if t < cfg.FromT {
				t = cfg.FromT
			}
			for i, vp := range vps {
				if b.skips(peers[vp], u.ID, t, len(prefixes)) {
					continue
				}
				if path := routes.at(i); path != nil {
					b.unit(u.ID, t, peers[vp], path, prefixes)
				}
			}
		}
	}
}

// emitMoves announces prefix reassignments: when a prefix switches to a
// sibling group's policy, peers whose path for it changes re-announce
// the single prefix (atom-composition churn on the wire).
func emitMoves(b *msgBuilder, eng *routing.Engine, vps []uint32, peers map[uint32]*Peer) {
	g, cfg := b.g, b.cfg
	if cfg.Model.PrefixMobileShare <= 0 && cfg.Model.PrefixBaseMoveRate <= 0 {
		return
	}
	for _, u := range g.Groups {
		for pi, pfx := range u.Prefixes {
			v1 := cfg.Model.PrefixMoveVersion(u.ID, pi, cfg.FromT)
			v2 := cfg.Model.PrefixMoveVersion(u.ID, pi, cfg.ToT)
			if v2 == v1 {
				continue
			}
			for k := v1 + 1; k <= v2; k++ {
				t := cfg.Model.PrefixMoveTime(u.ID, pi, k)
				if t < cfg.FromT {
					t = cfg.FromT
				}
				oldUnit, newUnit := u, u
				if tgt, ok := cfg.Model.MoveTarget(g, u, pi, k-1); ok {
					oldUnit = g.Groups[tgt]
				}
				if tgt, ok := cfg.Model.MoveTarget(g, u, pi, k); ok {
					newUnit = g.Groups[tgt]
				}
				if oldUnit == newUnit {
					continue
				}
				oldPaths := eng.PathsAt(oldUnit, vps)
				oldCopy := make([]aspath.Seq, len(oldPaths))
				for i := range oldPaths {
					oldCopy[i] = oldPaths[i].Path
				}
				newPaths := eng.PathsAt(newUnit, vps)
				for i, vp := range vps {
					if oldCopy[i].Equal(newPaths[i].Path) {
						continue
					}
					peer := peers[vp]
					if !streamCarries(g, peer, pfx) {
						continue
					}
					b.single(t, peer, newPaths[i].Path == nil, pfx, newPaths[i].Path)
				}
			}
		}
	}
}

// emitFlaps adds single-prefix withdraw/re-announce noise.
func emitFlaps(b *msgBuilder, eng *routing.Engine, vps []uint32, peers map[uint32]*Peer) {
	g, cfg := b.g, b.cfg
	if cfg.FlapRate <= 0 {
		return
	}
	routes := newLazyRoutes(eng, vps)
	for _, u := range g.Groups {
		routes.reset(u)
		for pi, pfx := range u.Prefixes {
			rate := cfg.FlapRate * 3 * topology.ChainUnit(uint64(u.ID), 0xf1a0, uint64(pi))
			v1 := flapVersion(rate, cfg.FromT, uint64(u.ID), uint64(pi))
			v2 := flapVersion(rate, cfg.ToT, uint64(u.ID), uint64(pi))
			for k := v1 + 1; k <= v2; k++ {
				t := cfg.FromT + (cfg.ToT-cfg.FromT)*topology.ChainUnit(uint64(u.ID), 0xf1a1, uint64(pi), uint64(k))
				back := t + 20.0/86400
				// One or two peers observe the flap.
				n := 1 + topology.ChainPick(2, uint64(u.ID), 0xf1a2, uint64(pi), uint64(k))
				for j := 0; j < n; j++ {
					vi := topology.ChainPick(len(vps), uint64(u.ID), 0xf1a3, uint64(pi), uint64(k), uint64(j))
					peer := peers[vps[vi]]
					// An out-of-scope observer matters only where it
					// seals an open instant.
					if !b.cfg.inScope(peer.ASN) && !b.open(t) && !b.open(back) {
						continue
					}
					path := routes.at(vi)
					if path == nil {
						continue
					}
					b.single(t, peer, true, pfx, nil)
					b.single(back, peer, false, pfx, path)
				}
			}
		}
	}
}

func flapVersion(rate, t float64, labels ...uint64) int {
	if rate <= 0 || t <= 0 {
		return 0
	}
	phase := topology.ChainUnit(append(labels, 0xf1a4)...)
	v := int(rate*t + phase)
	if v < 0 {
		v = 0
	}
	return v
}

// streamCarries reports whether peer's update stream carries pfx: a
// partial feed drops a hash-selected share of prefixes.
func streamCarries(g *topology.Graph, peer *Peer, pfx netip.Prefix) bool {
	return peer.FullFeed || topology.ChainUnit(g.Seed, 0xfeed, uint64(peer.ASN), prefixLabel(pfx)) < peer.PartialShare
}

// peerPrefixes filters a prefix batch to those a peer carries.
func peerPrefixes(g *topology.Graph, peer *Peer, prefixes []netip.Prefix) []netip.Prefix {
	if peer.FullFeed {
		return prefixes
	}
	var out []netip.Prefix
	for _, pfx := range prefixes {
		if streamCarries(g, peer, pfx) {
			out = append(out, pfx)
		}
	}
	return out
}

// chunked delivers a batch of n prefixes in one full message with
// probability FullMessageProb, otherwise split into 2–3 chunks a few
// seconds apart (and always split above the message size budget): it
// calls emit with each chunk's index range and time offset. An empty
// batch emits nothing.
func chunked(cfg *UpdateConfig, unitID int, t float64, n int, emit func(lo, hi int, dt float64)) {
	if n == 0 {
		return
	}
	full := topology.ChainUnit(uint64(unitID), 0xc4c4, uint64(t*86400)) < cfg.FullMessageProb
	if full && n <= maxPerMsg {
		emit(0, n, 0)
		return
	}
	parts := 2 + topology.ChainPick(2, uint64(unitID), 0xc4c5, uint64(t*86400))
	if n <= 1 {
		emit(0, n, 0)
		return
	}
	size := (n + parts - 1) / parts
	if size > maxPerMsg {
		size = maxPerMsg
	}
	dt := 0.0
	for i := 0; i < n; i += size {
		emit(i, min(i+size, n), dt)
		dt += chunkGap
	}
}

// maxPerMsg is the most prefixes one UPDATE carries, and chunkGap the
// time between a split batch's chunks, in days.
const (
	maxPerMsg = 200
	chunkGap  = 5.0 / 86400
)

// serialize sorts messages, packs them the way routers do, and writes
// per-collector BGP4MP archives, applying the ADD-PATH artifact at
// encode time. A scoped window's messages are all in scope already:
// the seals msgBuilder left where out-of-scope messages stood keep
// packing exactly as in the unscoped archive.
func serialize(in *Infra, cfg UpdateConfig, msgs []message) map[string][]byte {
	msgs = packMessages(msgs)
	// Peer → collectors it feeds.
	collectorsOf := map[uint32][]*Collector{}
	for _, c := range in.Collectors {
		for _, p := range c.Peers {
			collectorsOf[p.ASN] = append(collectorsOf[p.ASN], c)
		}
	}
	bufs := map[string]*bytes.Buffer{}
	writers := map[string]*mrt.Writer{}
	for _, c := range in.Collectors {
		b := &bytes.Buffer{}
		bufs[c.Name] = b
		writers[c.Name] = mrt.NewWriter(b)
	}

	enc := newMsgEncoder()
	for _, m := range msgs {
		// rec.Body aliases the encoder's scratch buffer; WriteRecord
		// copies it into the bufio layer before the next iteration.
		rec, ok := enc.encode(in, cfg, m)
		if !ok {
			continue
		}
		for _, c := range collectorsOf[m.peer.ASN] {
			writers[c.Name].WriteRecord(rec)
		}
	}
	out := map[string][]byte{}
	for name, w := range writers {
		if err := w.Flush(); err != nil {
			panic("collector: updates flush: " + err.Error())
		}
		out[name] = bufs[name].Bytes()
	}
	return out
}

// packMessages sorts messages by time and merges adjacent messages from
// the same peer at the same instant that share path attributes — BGP
// routers pack all NLRI with identical attributes into one UPDATE,
// which is why prefixes of one atom appear together in single update
// records even when they span generator units. A sealed message takes
// nothing more; a merge carries the seal of the message it absorbs.
func packMessages(msgs []message) []message {
	// (t, order) is a total order, so the result is deterministic.
	slices.SortFunc(msgs, func(a, b message) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.order, b.order)
	})
	out := msgs[:0]
	for _, m := range msgs {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if !prev.sealed && prev.peer == m.peer && prev.t == m.t && prev.withdraw == m.withdraw &&
				prev.path.Equal(m.path) && len(prev.prefixes)+len(m.prefixes) <= maxPerMsg {
				merged := make([]netip.Prefix, 0, len(prev.prefixes)+len(m.prefixes))
				merged = append(merged, prev.prefixes...)
				merged = append(merged, m.prefixes...)
				prev.prefixes = merged
				prev.sealed = m.sealed
				continue
			}
		}
		out = append(out, m)
	}
	return out
}

// msgEncoder holds the encode scratch reused across messages: one
// Update, its NLRI slice, a preboxed AS_PATH attribute whose segment is
// repointed per message, interned NEXT_HOP attributes, and the two
// output buffers. Steady-state encoding of an IPv4 message is
// allocation-free.
type msgEncoder struct {
	upd       bgp.Update
	nlri      []bgp.NLRI
	segs      [1]aspath.Segment
	pathAttr  bgp.Attr // boxed ASPath sharing segs[0]
	emptyPath bgp.Attr // boxed ASPath with no segments
	nextHops  map[netip.Addr]bgp.Attr
	msg       mrt.Message
	msgBuf    []byte
	bodyBuf   []byte
}

func newMsgEncoder() *msgEncoder {
	e := &msgEncoder{nextHops: map[netip.Addr]bgp.Attr{}}
	e.segs[0] = aspath.Segment{Type: aspath.SegSequence}
	// The boxed copy's Path.Segments still points at e.segs, so
	// repointing e.segs[0].ASNs retargets the attribute without
	// re-boxing.
	e.pathAttr = bgp.ASPath{Path: aspath.Path{Segments: e.segs[:1]}}
	e.emptyPath = bgp.ASPath{}
	return e
}

// nextHopAttr returns the interned boxed NEXT_HOP for addr.
func (e *msgEncoder) nextHopAttr(addr netip.Addr) bgp.Attr {
	if a, ok := e.nextHops[addr]; ok {
		return a
	}
	a := bgp.NextHop(addr)
	e.nextHops[addr] = a
	return a
}

// WarningPeers returns the peer ASNs whose update encoder can emit a
// malformed UPDATE — the ADD-PATH artifact peers (see msgEncoder.encode).
// Every peer-attributed parse warning of an update window comes from
// one of them, so a window scoped to this set (UpdateConfig.Peers)
// carries the full window's abnormal-peer signal.
func (in *Infra) WarningPeers() map[uint32]bool {
	out := map[uint32]bool{}
	for _, c := range in.Collectors {
		for _, p := range c.Peers {
			if p.Artifact == ArtifactAddPath {
				out[p.ASN] = true
			}
		}
	}
	return out
}

// encode builds the MRT record for one message. The returned record's
// Body aliases the encoder's scratch and is only valid until the next
// encode call.
func (e *msgEncoder) encode(in *Infra, cfg UpdateConfig, m message) (mrt.Record, bool) {
	if len(m.prefixes) == 0 {
		return mrt.Record{}, false
	}
	ts := cfg.BaseTime + uint32((m.t-cfg.FromT)*86400)
	opts := bgp.Options{AS4: true}
	subtype := mrt.SubMessageAS4
	if m.peer.Artifact == ArtifactAddPath {
		// The defect: the peer encodes ADD-PATH NLRI, the collector
		// stamps a non-ADD-PATH subtype. Downstream parsers warn or see
		// phantom prefixes (§A8.3.1). Occasionally the collector writes
		// an outright unknown subtype.
		opts.AddPath = true
		if topology.ChainUnit(in.Seed, 0xadd2, uint64(m.peer.ASN), uint64(ts)) < 0.1 {
			subtype = 77
		}
	}

	v4 := true
	for _, p := range m.prefixes {
		if p.Addr().Is6() && !p.Addr().Is4In6() {
			v4 = false
			break
		}
	}
	var err error
	if v4 {
		// Fast path: build the UPDATE in the reused scratch. Matches
		// NewAnnouncement/NewWithdrawal byte-for-byte for IPv4.
		e.nlri = e.nlri[:0]
		for _, p := range m.prefixes {
			e.nlri = append(e.nlri, bgp.NLRI{Prefix: p})
		}
		u := &e.upd
		u.Withdrawn = u.Withdrawn[:0]
		u.Attrs = u.Attrs[:0]
		u.Announced = u.Announced[:0]
		if m.withdraw {
			u.Withdrawn = e.nlri
		} else {
			pa := e.emptyPath
			if len(m.path) > 0 {
				e.segs[0].ASNs = m.path
				pa = e.pathAttr
			}
			u.Attrs = append(u.Attrs, bgp.Origin(bgp.OriginIGP), pa, e.nextHopAttr(m.peer.Addr))
			u.Announced = e.nlri
		}
		e.msgBuf, err = u.AppendMessage(e.msgBuf[:0], opts)
	} else {
		// IPv6 (or mixed, which errors): the cold path keeps the
		// validating constructors.
		var upd *bgp.Update
		if m.withdraw {
			upd, err = bgp.NewWithdrawal(m.prefixes)
		} else {
			upd, err = bgp.NewAnnouncement(m.path, m.peer.Addr, m.prefixes)
		}
		if err != nil {
			return mrt.Record{}, false
		}
		e.msgBuf, err = upd.AppendMessage(e.msgBuf[:0], opts)
	}
	if err != nil {
		return mrt.Record{}, false
	}
	e.msg = mrt.Message{
		PeerAS: m.peer.ASN, LocalAS: 12654,
		PeerAddr: m.peer.Addr, LocalAddr: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		Data: e.msgBuf, AS4: true,
	}
	e.bodyBuf, err = e.msg.AppendMarshal(e.bodyBuf[:0])
	if err != nil {
		return mrt.Record{}, false
	}
	return mrt.Record{Timestamp: ts, Type: mrt.TypeBGP4MP, Subtype: subtype, Body: e.bodyBuf}, true
}
