// Package routing computes the BGP routes that vantage points observe
// over a topology.Graph: Gao-Rexford valley-free propagation with the
// standard decision process (customer > peer > provider, then AS-path
// length, then a deterministic tie-break), honoring every policy the
// topology expresses — origin selective announce, origin and transit
// prepending, and transit selective export — plus a churn overlay that
// perturbs those policies between snapshots.
//
// The engine is exact but lazy: customer routes are propagated upward
// with a Dijkstra pass (they are always preferred, so the upward pass is
// self-contained), peer routes are a single-hop exchange, and
// provider-learned routes are resolved on demand by recursing up the
// acyclic provider DAG. Only the vantage points' routes are ever fully
// materialized, which keeps per-unit cost at a few hundred operations.
package routing

import (
	"net/netip"
	"slices"

	"repro/internal/aspath"
	"repro/internal/prefixset"
	"repro/internal/topology"
)

// Class is the route preference class, ascending.
type Class uint8

// Preference classes (higher wins).
const (
	ClassNone     Class = iota
	ClassProvider       // learned from a provider
	ClassPeer           // learned from a peer
	ClassCustomer       // learned from a customer
	ClassOrigin         // locally originated
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassProvider:
		return "provider"
	case ClassPeer:
		return "peer"
	case ClassCustomer:
		return "customer"
	case ClassOrigin:
		return "origin"
	default:
		return "none"
	}
}

// ExportKey addresses one transit export decision of a unit: AS ASN's
// export toward Neighbor.
type ExportKey struct {
	ASN      uint32
	Neighbor uint32
}

// Overlay perturbs the graph's policies without regenerating it — the
// churn mechanism behind stability, split, and update analyses.
type Overlay struct {
	// AnnounceOverride replaces a unit's origin announce policy.
	AnnounceOverride map[int]map[uint32]topology.AnnouncePolicy
	// ExportFlip inverts one transit export decision of a unit, keyed
	// by unit ID: the churn model installs at most one flip per unit.
	ExportFlip map[int]ExportKey
	// VPSalt changes tie-breaking at an AS (a local policy change: the
	// AS prefers a different equally-good neighbor).
	VPSalt map[uint32]uint64
	// WithdrawnUnits marks units entirely withdrawn (outage).
	WithdrawnUnits map[int]bool
	// PrefixMoves reassigns a prefix to another unit's policy (the
	// operator applied different traffic engineering to one prefix) —
	// the mechanism behind atom composition churn.
	PrefixMoves map[netip.Prefix]int
	// VPShift gives a vantage point a per-prefix route-shift token: a
	// small share (VPShiftShare) of the prefixes it carries use its
	// runner-up route instead of the best one — a local, per-prefix
	// policy change (hot-potato / localpref tweak) that splits atoms
	// visibly only at that VP (§4.4.1's localized splits). The token is
	// version-dependent: each VP event re-draws the churning portion.
	VPShift map[uint32]uint64
	// VPSticky is the version-independent component of the shift set:
	// most of a VP's idiosyncratic routes stay idiosyncratic across its
	// events, so stability decay saturates instead of compounding.
	VPSticky map[uint32]uint64
	// VPShiftShare is the fraction of prefixes a shifted VP re-routes.
	VPShiftShare float64
}

// MoveSet is a prepared index over an overlay's PrefixMoves.
type MoveSet struct {
	away map[netip.Prefix]bool
	into map[int][]netip.Prefix

	// cache memoizes UnitPrefixes per unit: callers ask for the same
	// unit once per VP, and the effective set is fixed for the
	// MoveSet's lifetime. Not safe for concurrent use (MoveSets are
	// built per goroutine, like Engines).
	cache map[int][]netip.Prefix
}

// BuildMoveSet indexes the overlay's prefix moves (nil-safe).
func BuildMoveSet(ov *Overlay) *MoveSet {
	ms := &MoveSet{away: map[netip.Prefix]bool{}, into: map[int][]netip.Prefix{}}
	if ov == nil {
		return ms
	}
	for pfx, target := range ov.PrefixMoves {
		ms.away[pfx] = true
		//atomlint:ignore determinism every into-bucket is sorted by the loop below
		ms.into[target] = append(ms.into[target], pfx)
	}
	for _, ps := range ms.into {
		prefixset.SortPrefixes(ps)
	}
	return ms
}

// UnitPrefixes returns the unit's effective prefix set: home prefixes
// not moved away, plus prefixes moved in.
func (ms *MoveSet) UnitPrefixes(u *topology.PolicyGroup) []netip.Prefix {
	moved := ms.into[u.ID]
	if len(ms.away) == 0 && len(moved) == 0 {
		return u.Prefixes
	}
	if out, ok := ms.cache[u.ID]; ok {
		return out
	}
	out := make([]netip.Prefix, 0, len(u.Prefixes)+len(moved))
	for _, p := range u.Prefixes {
		if !ms.away[p] {
			out = append(out, p)
		}
	}
	out = append(out, moved...)
	if ms.cache == nil {
		ms.cache = map[int][]netip.Prefix{}
	}
	ms.cache[u.ID] = out
	return out
}

// VPRoute is the route a vantage point announces to a collector.
type VPRoute struct {
	// Path includes the vantage point's own ASN first and the origin
	// last (the path as it appears in collector data).
	Path  aspath.Seq
	Class Class
	Cost  int
}

// Engine computes routes for one graph + overlay. Not safe for
// concurrent use; create one engine per goroutine.
type Engine struct {
	G  *topology.Graph
	Ov *Overlay

	asns []uint32
	as   []*topology.AS // G.ASes

	// Per-unit scratch, stamp-versioned to avoid O(n) clears.
	stamp    []uint32
	cur      uint32
	custCost []int32
	custPar  []int32
	custPrep []int8

	peerStamp []uint32
	peerCost  []int32
	peerPar   []int32
	peerPrep  []int8

	bestStamp []uint32
	bestKind  []Class
	bestCost  []int32
	bestPar   []int32
	bestPrep  []int8

	pathStamp []uint32
	pathMemo  [][]uint32 // memo of pathBest per node

	custPathStamp []uint32
	custPathMemo  [][]uint32

	custOrder []int32 // nodes that got customer routes, pop order

	settledStamp []uint32 // Dijkstra settled set, stamp-versioned
	q            []pqItem // Dijkstra heap, reused across units

	// pathArena backs the per-unit path memos: memos die with the unit
	// stamp, so the arena rewinds in ComputeUnit and reconstruction
	// stops allocating once the high-water chunk is in place. Chunk
	// rollover mid-unit is fine — live memos keep the old chunk alive.
	pathArena []uint32

	// emitArena backs the Seq results RouteAt/AltRouteAt hand out.
	// Unlike pathArena it never rewinds: callers (feed builders) retain
	// the returned paths across units, so a full block is simply
	// abandoned to its owners and a fresh one started. This amortizes
	// the dominant per-(unit, VP) result allocation into one allocation
	// per ~16Ki hops.
	emitArena []uint32

	// hash is each node's export hash advanced to the current unit,
	// staged from G.Hash on first use.
	hashStamp []uint32
	hash      []topology.ExportHash

	unit   *topology.PolicyGroup
	origin int32
	// flipFrom/flipTo are the positions of the current unit's export
	// flip, or -1.
	flipFrom, flipTo int32
}

// NewEngine builds an engine over g with an optional overlay.
func NewEngine(g *topology.Graph, ov *Overlay) *Engine {
	n := len(g.ASes)
	e := &Engine{
		G: g, Ov: ov,
		asns: make([]uint32, n),
		as:   g.ASes,

		stamp:    make([]uint32, n),
		custCost: make([]int32, n),
		custPar:  make([]int32, n),
		custPrep: make([]int8, n),

		peerStamp: make([]uint32, n),
		peerCost:  make([]int32, n),
		peerPar:   make([]int32, n),
		peerPrep:  make([]int8, n),

		bestStamp: make([]uint32, n),
		bestKind:  make([]Class, n),
		bestCost:  make([]int32, n),
		bestPar:   make([]int32, n),
		bestPrep:  make([]int8, n),

		pathStamp: make([]uint32, n),
		pathMemo:  make([][]uint32, n),

		custPathStamp: make([]uint32, n),
		custPathMemo:  make([][]uint32, n),

		settledStamp: make([]uint32, n),

		hashStamp: make([]uint32, n),
		hash:      make([]topology.ExportHash, n),
	}
	for i, a := range g.ASes {
		e.asns[i] = a.ASN
	}
	return e
}

// announce returns the unit's effective announce policy.
func (e *Engine) announce(u *topology.PolicyGroup) map[uint32]topology.AnnouncePolicy {
	if e.Ov != nil {
		if ov, ok := e.Ov.AnnounceOverride[u.ID]; ok {
			return ov
		}
	}
	return u.Announce
}

// exports evaluates node from's transit export decision for the current
// unit toward neighbor to, with the overlay's flip applied. toPeer says
// to is known to be a peer of from; otherwise selectivity looks it up.
func (e *Engine) exports(from, to int32, toPeer bool) (ok bool, prep int) {
	a := e.as[from]
	ok = true
	if a.Selectivity > 0 || a.PrependRate > 0 {
		if e.hashStamp[from] != e.cur {
			e.hashStamp[from] = e.cur
			e.hash[from] = e.G.Hash[from].ForUnit(e.unit.ID)
		}
		if !toPeer && a.Selectivity > 0 {
			_, toPeer = slices.BinarySearch(e.G.PeersOf(from), to)
		}
		ok, prep = e.hash[from].Exports(a, e.asns[to], toPeer)
	}
	if from == e.flipFrom && to == e.flipTo {
		ok = !ok
		if ok {
			prep = 0
		}
	}
	return ok, prep
}

// tiebreak returns the comparison key for choosing between equal-cost
// candidates at node x: normally the neighbor ASN (lowest wins), salted
// when the overlay marks x as having changed its local preference.
func (e *Engine) tiebreak(x int32, neighborASN uint32) uint64 {
	if e.Ov != nil {
		if salt, ok := e.Ov.VPSalt[e.asns[x]]; ok && salt != 0 {
			return h64mix(uint64(neighborASN), salt)
		}
	}
	return uint64(neighborASN)
}

func h64mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// pqItem is a Dijkstra heap entry.
type pqItem struct {
	cost int32
	key  uint64
	node int32
}

func pqLess(a, b pqItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.node < b.node
}

// pushQ/popQ implement the Dijkstra heap directly on the engine's
// reused slice: container/heap's any-boxed interface allocates on every
// Push/Pop, which dominated the per-unit allocation profile.
func (e *Engine) pushQ(it pqItem) {
	q := append(e.q, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	e.q = q
}

func (e *Engine) popQ() pqItem {
	q := e.q
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && pqLess(q[l], q[s]) {
			s = l
		}
		if r < n && pqLess(q[r], q[s]) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	e.q = q
	return top
}

// ComputeUnit prepares routes for one unit. Subsequent RouteAt calls
// answer for this unit until the next ComputeUnit.
func (e *Engine) ComputeUnit(u *topology.PolicyGroup) {
	e.cur++
	e.unit = u
	e.custOrder = e.custOrder[:0]
	e.pathArena = e.pathArena[:0]
	e.origin, e.flipFrom, e.flipTo = -1, -1, -1
	oi, ok := e.G.Index[u.Origin]
	if !ok || e.Ov != nil && e.Ov.WithdrawnUnits[u.ID] {
		return
	}
	e.origin = oi
	if e.Ov != nil {
		if f, ok := e.Ov.ExportFlip[u.ID]; ok {
			from, ok1 := e.G.Index[f.ASN]
			to, ok2 := e.G.Index[f.Neighbor]
			if ok1 && ok2 {
				e.flipFrom, e.flipTo = from, to
			}
		}
	}

	// Origin's own route.
	e.stamp[oi] = e.cur
	e.custCost[oi] = 0
	e.custPar[oi] = -1
	e.custPrep[oi] = 0
	e.custOrder = append(e.custOrder, oi)

	// Seeds: the origin's announcements. Providers receive customer-class
	// routes (and enter the upward Dijkstra); peers receive peer-class.
	origin := e.as[oi]
	e.q = e.q[:0]
	for n, pol := range e.announce(u) {
		ni, ok := e.G.Index[n]
		if !ok {
			continue
		}
		cost := int32(1 + pol.Prepend)
		switch {
		case slices.Contains(e.G.ProvidersOf(oi), ni):
			if e.better(ni, cost, oi, e.custStampOK(ni), e.custCost, e.custPar) {
				e.stamp[ni] = e.cur
				e.custCost[ni] = cost
				e.custPar[ni] = oi
				e.custPrep[ni] = int8(pol.Prepend)
				e.pushQ(pqItem{cost: cost, key: e.tiebreak(ni, origin.ASN), node: ni})
			}
		case slices.Contains(e.G.PeersOf(oi), ni):
			if e.peerBetter(ni, cost, oi) {
				e.peerStamp[ni] = e.cur
				e.peerCost[ni] = cost
				e.peerPar[ni] = oi
				e.peerPrep[ni] = int8(pol.Prepend)
			}
		}
	}

	// Phase 1: customer routes climb the provider DAG.
	for len(e.q) > 0 {
		it := e.popQ()
		x := it.node
		if e.settledStamp[x] == e.cur || e.stamp[x] != e.cur || e.custCost[x] != it.cost {
			continue
		}
		e.settledStamp[x] = e.cur
		e.custOrder = append(e.custOrder, x)
		for _, pi := range e.G.ProvidersOf(x) {
			if e.settledStamp[pi] == e.cur {
				continue
			}
			expOK, prep := e.exports(x, pi, false)
			if !expOK {
				continue
			}
			cost := e.custCost[x] + 1 + int32(prep)
			if e.betterCust(pi, cost, x) {
				e.stamp[pi] = e.cur
				e.custCost[pi] = cost
				e.custPar[pi] = x
				e.custPrep[pi] = int8(prep)
				e.pushQ(pqItem{cost: cost, key: e.tiebreak(pi, e.asns[x]), node: pi})
			}
		}
	}

	// Phase 2: one-hop peer exchange of customer-class routes.
	for _, x := range e.custOrder {
		if x == oi {
			continue // origin's peer announcements were seeded above
		}
		for _, pi := range e.G.PeersOf(x) {
			expOK, prep := e.exports(x, pi, true)
			if !expOK {
				continue
			}
			cost := e.custCost[x] + 1 + int32(prep)
			if e.peerBetter(pi, cost, x) {
				e.peerStamp[pi] = e.cur
				e.peerCost[pi] = cost
				e.peerPar[pi] = x
				e.peerPrep[pi] = int8(prep)
			}
		}
	}
}

func (e *Engine) custStampOK(x int32) bool { return e.stamp[x] == e.cur }

// better reports whether (cost, parent) beats the stored customer route
// at x, comparing (cost, tiebreak(parentASN)).
func (e *Engine) better(x int32, cost int32, par int32, has bool, costs []int32, pars []int32) bool {
	if !has {
		return true
	}
	if cost != costs[x] {
		return cost < costs[x]
	}
	return e.tiebreak(x, e.asns[par]) < e.tiebreak(x, e.asns[pars[x]])
}

func (e *Engine) betterCust(x, cost, par int32) bool {
	return e.better(x, cost, par, e.stamp[x] == e.cur, e.custCost, e.custPar)
}

func (e *Engine) peerBetter(x, cost, par int32) bool {
	return e.better(x, cost, par, e.peerStamp[x] == e.cur, e.peerCost, e.peerPar)
}

// bestAt resolves the decision process at node x for the current unit:
// customer route if any, else peer, else the best provider-learned
// route (recursing up the acyclic provider DAG). Returns false if x has
// no route.
func (e *Engine) bestAt(x int32) bool {
	if e.bestStamp[x] == e.cur {
		return e.bestKind[x] != ClassNone
	}
	e.bestStamp[x] = e.cur
	e.bestKind[x] = ClassNone

	if e.stamp[x] == e.cur { // customer-class (or origin)
		if x == e.origin {
			e.bestKind[x] = ClassOrigin
		} else {
			e.bestKind[x] = ClassCustomer
		}
		e.bestCost[x] = e.custCost[x]
		e.bestPar[x] = e.custPar[x]
		e.bestPrep[x] = e.custPrep[x]
		return true
	}
	if e.peerStamp[x] == e.cur {
		e.bestKind[x] = ClassPeer
		e.bestCost[x] = e.peerCost[x]
		e.bestPar[x] = e.peerPar[x]
		e.bestPrep[x] = e.peerPrep[x]
		return true
	}
	// Provider-learned: the origin always exports to its customers; a
	// transit exports its best route to customers subject to policy.
	haveBest := false
	var bCost int32
	var bPar int32
	var bPrep int8
	for _, pi := range e.G.ProvidersOf(x) {
		if !e.bestAt(pi) {
			continue
		}
		var expOK bool
		var prep int
		if pi == e.origin {
			expOK, prep = true, 0 // origin always serves its customers
		} else {
			expOK, prep = e.exports(pi, x, false)
		}
		if !expOK {
			continue
		}
		cost := e.bestCost[pi] + 1 + int32(prep)
		if !haveBest || cost < bCost ||
			(cost == bCost && e.tiebreak(x, e.asns[pi]) < e.tiebreak(x, e.asns[bPar])) {
			haveBest = true
			bCost = cost
			bPar = pi
			bPrep = int8(prep)
		}
	}
	if !haveBest {
		return false
	}
	e.bestKind[x] = ClassProvider
	e.bestCost[x] = bCost
	e.bestPar[x] = bPar
	e.bestPrep[x] = bPrep
	return true
}

// carve returns an empty capacity-n slice cut from the path arena. The
// full slice expression keeps later carves from clobbering it on append.
func (e *Engine) carve(n int) []uint32 {
	if len(e.pathArena)+n > cap(e.pathArena) {
		sz := 1 << 15
		if n > sz {
			sz = n
		}
		e.pathArena = make([]uint32, 0, sz)
	}
	m := len(e.pathArena)
	s := e.pathArena[m : m : m+n]
	e.pathArena = e.pathArena[:m+n]
	return s
}

// emitCarve returns an empty capacity-n Seq cut from the retained emit
// arena (see the field comment for the lifetime contract).
func (e *Engine) emitCarve(n int) aspath.Seq {
	if len(e.emitArena)+n > cap(e.emitArena) {
		sz := 1 << 14
		if n > sz {
			sz = n
		}
		e.emitArena = make([]uint32, 0, sz)
	}
	m := len(e.emitArena)
	s := e.emitArena[m : m : m+n]
	e.emitArena = e.emitArena[:m+n]
	return s
}

// pathCust reconstructs the customer-class path at x (not including x).
func (e *Engine) pathCust(x int32) []uint32 {
	if x == e.origin {
		return nil
	}
	if e.custPathStamp[x] == e.cur {
		return e.custPathMemo[x]
	}
	par := e.custPar[x]
	parPath := e.pathCust(par)
	path := e.carve(len(parPath) + 1 + int(e.custPrep[x]))
	for i := 0; i <= int(e.custPrep[x]); i++ {
		path = append(path, e.asns[par])
	}
	path = append(path, parPath...)
	e.custPathStamp[x] = e.cur
	e.custPathMemo[x] = path
	return path
}

// pathBest reconstructs the best path at x (not including x).
func (e *Engine) pathBest(x int32) []uint32 {
	if e.pathStamp[x] == e.cur {
		return e.pathMemo[x]
	}
	var path []uint32
	switch e.bestKind[x] {
	case ClassOrigin:
		path = nil
	case ClassCustomer:
		path = e.pathCust(x)
	case ClassPeer:
		par := e.peerPar[x]
		parPath := e.pathCust(par)
		path = e.carve(len(parPath) + 1 + int(e.peerPrep[x]))
		for i := 0; i <= int(e.peerPrep[x]); i++ {
			path = append(path, e.asns[par])
		}
		path = append(path, parPath...)
	case ClassProvider:
		par := e.bestPar[x]
		parPath := e.pathBest(par)
		path = e.carve(len(parPath) + 1 + int(e.bestPrep[x]))
		for i := 0; i <= int(e.bestPrep[x]); i++ {
			path = append(path, e.asns[par])
		}
		path = append(path, parPath...)
	}
	e.pathStamp[x] = e.cur
	e.pathMemo[x] = path
	return path
}

// RouteAt returns the route the given AS would announce to a collector
// for the current unit, with ok=false if the AS has no route. The path
// includes the AS itself first.
func (e *Engine) RouteAt(asn uint32) (VPRoute, bool) {
	x, ok := e.G.Index[asn]
	if !ok || e.origin < 0 {
		return VPRoute{}, false
	}
	if !e.bestAt(x) {
		return VPRoute{}, false
	}
	inner := e.pathBest(x)
	path := e.emitCarve(len(inner) + 1)
	path = append(path, asn)
	path = append(path, inner...)
	return VPRoute{Path: path, Class: e.bestKind[x], Cost: int(e.bestCost[x])}, true
}

// AltRouteAt returns the runner-up route at the given AS for the
// current unit: the best candidate at the final selection step other
// than the one chosen — the route the AS would fall back to after a
// local preference change. ok=false if there is no alternative.
func (e *Engine) AltRouteAt(asn uint32) (VPRoute, bool) {
	x, ok := e.G.Index[asn]
	if !ok || e.origin < 0 || !e.bestAt(x) {
		return VPRoute{}, false
	}
	if e.bestKind[x] == ClassOrigin {
		// Self-originated: any "alternative" via a provider would loop
		// back through the origin's own ASN, which BGP rejects.
		return VPRoute{}, false
	}
	chosenKind, chosenPar := e.bestKind[x], e.bestPar[x]
	type cand struct {
		kind Class
		cost int32
		par  int32
		prep int8
	}
	var best cand
	haveBest := false
	consider := func(c cand) {
		if c.kind == chosenKind && c.par == chosenPar {
			return
		}
		if !haveBest ||
			c.kind > best.kind ||
			(c.kind == best.kind && c.cost < best.cost) ||
			(c.kind == best.kind && c.cost == best.cost &&
				e.tiebreak(x, e.asns[c.par]) < e.tiebreak(x, e.asns[best.par])) {
			best = c
			haveBest = true
		}
	}
	if e.stamp[x] == e.cur && x != e.origin {
		consider(cand{kind: ClassCustomer, cost: e.custCost[x], par: e.custPar[x], prep: e.custPrep[x]})
	}
	if e.peerStamp[x] == e.cur {
		consider(cand{kind: ClassPeer, cost: e.peerCost[x], par: e.peerPar[x], prep: e.peerPrep[x]})
	}
	for _, pi := range e.G.ProvidersOf(x) {
		if !e.bestAt(pi) {
			continue
		}
		var expOK bool
		var prep int
		if pi == e.origin {
			expOK, prep = true, 0
		} else {
			expOK, prep = e.exports(pi, x, false)
		}
		if !expOK {
			continue
		}
		consider(cand{kind: ClassProvider, cost: e.bestCost[pi] + 1 + int32(prep), par: pi, prep: int8(prep)})
	}
	if !haveBest {
		return VPRoute{}, false
	}
	// Reconstruct the alternative's path. inner only lives until it is
	// copied into the result, so it can come from the unit arena too.
	var inner []uint32
	emit := func(par int32, prep int8, parPath []uint32) {
		inner = e.carve(len(parPath) + 1 + int(prep))
		for i := 0; i <= int(prep); i++ {
			inner = append(inner, e.asns[par])
		}
		inner = append(inner, parPath...)
	}
	switch best.kind {
	case ClassCustomer:
		inner = e.pathCust(x)
	case ClassPeer:
		emit(best.par, best.prep, e.pathCust(best.par))
	case ClassProvider:
		emit(best.par, best.prep, e.pathBest(best.par))
	}
	path := e.emitCarve(len(inner) + 1)
	path = append(path, asn)
	path = append(path, inner...)
	return VPRoute{Path: path, Class: best.kind, Cost: int(best.cost)}, true
}

// PathsAt computes routes for every vantage point for one unit:
// result[i] corresponds to vps[i]; missing routes have a nil Path.
func (e *Engine) PathsAt(u *topology.PolicyGroup, vps []uint32) []VPRoute {
	e.ComputeUnit(u)
	out := make([]VPRoute, len(vps))
	for i, vp := range vps {
		if r, ok := e.RouteAt(vp); ok {
			out[i] = r
		}
	}
	return out
}
