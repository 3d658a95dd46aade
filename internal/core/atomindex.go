// Incremental atom maintenance: AtomIndex holds the atom partition of
// one snapshot and re-buckets a single prefix row in O(row) when an
// update touches it, instead of recomputing every atom from scratch.
// This is the delta engine behind `atomize -replay` and the streaming
// north star: an UPDATE for prefix p re-hashes p's row, moves p between
// atom buckets, and creates or retires atoms at first/last membership —
// nothing else is touched.
//
// # Bucket invariants
//
// The index mirrors the batch grouping's hash design (hash → chain of
// distinct vectors, equality always verified on the raw rows, so
// results never depend on hash quality) but makes it mutable:
//
//   - every live atom has count ≥ 1 and sits in exactly one bucket
//     chain, the one keyed by the hash of its vector;
//   - an atom's vector is the row of any of its members (all equal by
//     construction); membership is a doubly-linked list over prefix
//     indices, so detaching a member is O(1) and the head member is
//     always a valid representative;
//   - a prefix belongs to exactly one atom (byPrefix), including
//     all-empty rows — the paper's invisible prefixes group into one
//     all-empty atom exactly as batch ComputeAtoms groups them;
//   - retired atom IDs and their storage recycle through a free list,
//     so the steady churn path allocates nothing.
//
// # Retirement rules
//
// Detaching the last member retires the atom: it is unlinked from its
// bucket chain (the map key is deleted when the chain empties) and its
// ID is pushed on the free list. A later creation pops the free list
// before growing the atom table, so the arena footprint is bounded by
// the high-water atom count, not by churn volume.
//
// # Determinism
//
// Internal atom IDs depend on application order (creation order with
// free-list reuse). Materialize renumbers them by first occurrence in
// prefix order — the batch numbering — so two indexes that went
// through different histories to the same matrix materialize byte-
// identical AtomSets, and replaying a deterministic element stream
// (bgpstream serves byte-identical order at any worker count) yields a
// byte-identical result at any worker count.
package core

import (
	"hash/maphash"

	"repro/internal/aspath"
)

// atomRec is one live (or free) atom in the index.
type atomRec struct {
	hash  uint64 // hash of the vector, keys the bucket chain
	chain int32  // next atom in the same bucket chain, -1 terminates
	head  int32  // first member prefix index (-1 when free)
	count int32  // live members
}

// DeltaStats counts what a stream of ApplyUpdate calls did.
type DeltaStats struct {
	Updates int // ApplyUpdate calls, including no-ops
	NoOps   int // route already had the given ID: nothing changed
	Applied int // row actually re-bucketed
	Created int // atoms minted (first membership of a new vector)
	Retired int // atoms retired (last member left)
}

// Delta describes what one ApplyUpdate did.
type Delta struct {
	Old, New aspath.ID
	// NoOp: the cell already held New; counters did not flap.
	NoOp bool
	// Created: the prefix's new vector had no atom, one was minted.
	Created bool
	// Retired: the prefix was its old atom's last member.
	Retired bool
}

// AtomIndex is the incremental atom-maintenance engine over one
// snapshot. Build it with NewAtomIndex, mutate the snapshot only
// through ApplyUpdate, and read the partition back with Materialize
// (or AtomCount / SameAtom for point queries). Not safe for concurrent
// use: deltas apply in serve order, which is what makes replay
// deterministic.
type AtomIndex struct {
	snap    *Snapshot
	stride  int
	buckets map[uint64]int32 // vector hash → chain head atom
	atoms   []atomRec        // indexed by internal atom ID
	free    []int32          // retired IDs, reused before growing atoms
	// byPrefix[p] is p's atom; next/prev link the members of each atom
	// into a doubly-linked list (-1 terminates) so detach is O(1) and an
	// atom's head member is always a usable representative row.
	byPrefix []int32
	next     []int32
	prev     []int32
	live     int
	buf      []byte // row-encode scratch for hashing
	stats    DeltaStats
	// testHash, when non-nil, replaces the row hash — tests use it to
	// force bucket collisions. Nil in production.
	testHash func(row []aspath.ID) uint64
}

// NewAtomIndex builds the index for the snapshot's current matrix.
// Cost is one batch grouping: O(prefixes × VPs). The index owns the
// partition from here on; mutate routes only via ApplyUpdate.
func NewAtomIndex(s *Snapshot) *AtomIndex {
	return newAtomIndexHash(s, nil)
}

// newAtomIndexHash is NewAtomIndex with a hash override (test seam for
// forced bucket collisions).
func newAtomIndexHash(s *Snapshot, h func(row []aspath.ID) uint64) *AtomIndex {
	n := len(s.Prefixes)
	ix := &AtomIndex{
		snap:     s,
		stride:   len(s.VPs),
		buckets:  make(map[uint64]int32, n/2+1),
		atoms:    make([]atomRec, 0, n/4+1),
		byPrefix: make([]int32, n),
		next:     make([]int32, n),
		prev:     make([]int32, n),
		buf:      make([]byte, 0, len(s.VPs)*4),
		testHash: h,
	}
	for p := 0; p < n; p++ {
		ix.byPrefix[p] = -1
		ix.rebucket(p)
	}
	return ix
}

// Snapshot returns the snapshot the index maintains. Callers must not
// mutate its routes directly — route changes go through ApplyUpdate.
func (ix *AtomIndex) Snapshot() *Snapshot { return ix.snap }

// AtomCount returns the number of live atoms.
func (ix *AtomIndex) AtomCount() int { return ix.live }

// Stats returns the cumulative delta counters.
func (ix *AtomIndex) Stats() DeltaStats { return ix.stats }

// SameAtom reports whether prefixes p and q currently share an atom.
func (ix *AtomIndex) SameAtom(p, q int) bool {
	return ix.byPrefix[p] == ix.byPrefix[q]
}

// MemberCount returns the size of prefix p's atom.
func (ix *AtomIndex) MemberCount(p int) int {
	return int(ix.atoms[ix.byPrefix[p]].count)
}

// ApplyUpdate is the delta kernel: route (prefix p, VP v) becomes id,
// and only p's row is re-bucketed — hash the updated row, move p
// between atom buckets, mint or retire atoms at first/last membership.
// O(row) per call; the steady path (warm free lists, no map growth) is
// allocation-free, pinned by TestApplyUpdateSteadyStateAllocs.
//
// A duplicate update (the cell already holds id) is a guaranteed
// no-op: no allocation, no counter flap, no bucket movement.
func (ix *AtomIndex) ApplyUpdate(p, v int, id aspath.ID) Delta {
	ix.stats.Updates++
	old := ix.snap.RouteID(p, v)
	if old == id {
		ix.stats.NoOps++
		return Delta{Old: old, New: id, NoOp: true}
	}
	// Detach p before the row mutates: bucket lookups compare against
	// member rows, so no atom may claim p while its row is in flux.
	retired := ix.detach(p)
	ix.snap.SetRouteID(p, v, id)
	created := ix.rebucket(p)
	ix.stats.Applied++
	return Delta{Old: old, New: id, Created: created, Retired: retired}
}

// rowHash hashes prefix p's current row (the batch grouping's encoding
// and seed, so index and batch agree on bucket keys).
func (ix *AtomIndex) rowHash(row []aspath.ID) uint64 {
	if ix.testHash != nil {
		return ix.testHash(row)
	}
	ix.buf = rowBytes(ix.buf, row)
	return maphash.Bytes(atomSeed, ix.buf)
}

// detach removes p from its atom, retiring the atom when p was the
// last member. Reports whether a retirement happened.
func (ix *AtomIndex) detach(p int) bool {
	a := ix.byPrefix[p]
	rec := &ix.atoms[a]
	nx, pv := ix.next[p], ix.prev[p]
	if pv >= 0 {
		ix.next[pv] = nx
	} else {
		rec.head = nx
	}
	if nx >= 0 {
		ix.prev[nx] = pv
	}
	rec.count--
	ix.byPrefix[p] = -1
	if rec.count > 0 {
		return false
	}
	ix.unlink(a, rec)
	rec.head = -1
	ix.free = append(ix.free, a)
	ix.live--
	ix.stats.Retired++
	return true
}

// unlink removes atom a from its bucket chain — the bucket-move half
// of retirement. The map key is deleted when the chain empties so the
// bucket table tracks live vectors, not historical ones.
func (ix *AtomIndex) unlink(a int32, rec *atomRec) {
	head := ix.buckets[rec.hash]
	if head == a {
		if rec.chain < 0 {
			delete(ix.buckets, rec.hash)
		} else {
			ix.buckets[rec.hash] = rec.chain
		}
		return
	}
	// Hash collisions chain; chains are almost always length 1, so this
	// walk is O(1) expected and bounded by the collision count.
	for c := head; c >= 0; c = ix.atoms[c].chain {
		if ix.atoms[c].chain == a {
			ix.atoms[c].chain = rec.chain
			return
		}
	}
}

// rebucket files detached prefix p under the atom matching its current
// row, creating the atom if the vector is new. Reports whether an atom
// was created. Equality is verified on the raw rows (against the
// candidate atom's head member), never on the hash alone.
func (ix *AtomIndex) rebucket(p int) bool {
	row := ix.snap.Row(p)
	hv := ix.rowHash(row)
	head, ok := ix.buckets[hv]
	if ok {
		for c := head; c >= 0; c = ix.atoms[c].chain {
			rec := &ix.atoms[c]
			if rowsEqual(ix.snap.Row(int(rec.head)), row) {
				// Push p onto the member list; head stays a stable
				// representative unless it detaches.
				ix.next[p] = rec.head
				ix.prev[rec.head] = int32(p)
				ix.prev[p] = -1
				rec.head = int32(p)
				rec.count++
				ix.byPrefix[p] = c
				return false
			}
		}
	} else {
		head = -1
	}
	a := ix.newAtom()
	ix.atoms[a] = atomRec{hash: hv, chain: head, head: int32(p), count: 1}
	ix.buckets[hv] = a
	ix.next[p] = -1
	ix.prev[p] = -1
	ix.byPrefix[p] = a
	ix.live++
	ix.stats.Created++
	return true
}

// newAtom returns a free atom ID, popping the free list before growing
// the table — churn reuses retired slots, so the atoms slice is bounded
// by the high-water live count.
func (ix *AtomIndex) newAtom() int32 {
	if n := len(ix.free); n > 0 {
		a := ix.free[n-1]
		ix.free = ix.free[:n-1]
		return a
	}
	ix.atoms = append(ix.atoms, atomRec{})
	return int32(len(ix.atoms) - 1)
}

// Partition is a point-in-time copy of an index's atom partition with
// canonical atom numbering — first occurrence in prefix order, the
// batch ComputeAtoms numbering, so partitions taken from different
// update histories over the same matrix are byte-identical. It shares
// no storage with the index: the atomd epoch seam publishes one behind
// an atomic pointer and lets concurrent readers index it while the
// index keeps mutating.
type Partition struct {
	// ByPrefix maps prefix row → canonical atom ID.
	ByPrefix []int32
	// Counts maps canonical atom ID → member count.
	Counts []int32
}

// Partition snapshots the current partition under canonical numbering
// without materializing vectors or member lists — O(prefixes), the
// cheap core of Materialize. remap is optional scratch carried between
// calls (grown as needed); the second return value hands it back.
func (ix *AtomIndex) Partition(remap []int32) (*Partition, []int32) {
	if cap(remap) < len(ix.atoms) {
		remap = make([]int32, len(ix.atoms))
	}
	remap = remap[:len(ix.atoms)]
	for i := range remap {
		remap[i] = -1
	}
	n := len(ix.snap.Prefixes)
	part := &Partition{
		ByPrefix: make([]int32, n),
		Counts:   make([]int32, 0, ix.live),
	}
	for p := 0; p < n; p++ {
		a := ix.byPrefix[p]
		c := remap[a]
		if c < 0 {
			c = int32(len(part.Counts))
			remap[a] = c
			part.Counts = append(part.Counts, ix.atoms[a].count)
		}
		part.ByPrefix[p] = c
	}
	return part, remap
}

// Materialize builds the AtomSet for the current matrix from the
// maintained partition — no rehashing, no regrouping. Atom IDs are
// renumbered by first occurrence in prefix order, exactly the batch
// numbering, so Materialize after any update history equals
// ComputeAtoms on the same matrix byte for byte (the differential
// harness pins this). workers bounds the origin-computation fan-out,
// as in ComputeAtoms.
func (ix *AtomIndex) Materialize(workers int) *AtomSet {
	n := len(ix.snap.Prefixes)
	as := &AtomSet{Snap: ix.snap, ByPrefix: make([]int, n)}
	remap := make([]int32, len(ix.atoms))
	for i := range remap {
		remap[i] = -1
	}
	reps := make([]int32, 0, ix.live)
	for p := 0; p < n; p++ {
		a := ix.byPrefix[p]
		if remap[a] < 0 {
			remap[a] = int32(len(reps))
			reps = append(reps, int32(p))
		}
		as.ByPrefix[p] = int(remap[a])
	}
	finalizeAtoms(as, reps, workers)
	return as
}
