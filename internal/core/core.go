// Package core implements the paper's primary contribution: policy-atom
// computation. A policy atom is a maximal group of prefixes that share
// the same AS path at every vantage point (Broido & Claffy 2001; Afek
// et al. 2002). The package models a sanitized BGP snapshot as a dense
// (prefix × vantage point) matrix of interned path IDs, groups identical
// rows into atoms by hashing, and derives the general statistics of
// Tables 1 and 4 and the distributions of Figures 2, 8 and 14.
package core

import (
	"hash/maphash"
	"net/netip"
	"sort"
	"strconv"
	"sync"

	"repro/internal/aspath"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// VP identifies a vantage point: one peer feed at one collector.
type VP struct {
	Collector string
	ASN       uint32
}

// String renders "rrc00/AS3356".
func (v VP) String() string {
	return v.Collector + "/AS" + strconv.FormatUint(uint64(v.ASN), 10)
}

// Snapshot is a sanitized routing snapshot: for every prefix, the AS
// path observed at every vantage point (aspath.Empty where the prefix
// was missing — the paper's "empty path" convention).
//
// The route matrix is stored flat: one contiguous prefix-major backing
// array instead of a slice-of-slices, so building a snapshot costs one
// allocation regardless of prefix count and row hashing walks memory
// sequentially. Access goes through Row/RouteID/SetRouteID.
type Snapshot struct {
	Time     uint32
	VPs      []VP
	Prefixes []netip.Prefix
	Paths    *aspath.Table
	// routes is the flat (prefix × VP) matrix: the path of prefix p at
	// VP v lives at routes[p*stride+v], with stride == len(VPs).
	routes []aspath.ID
	stride int
}

// NewSnapshot allocates an empty snapshot with the given shape and a
// fresh interning table. All routes start empty.
func NewSnapshot(time uint32, vps []VP, prefixes []netip.Prefix) *Snapshot {
	return NewSnapshotWith(time, vps, prefixes, aspath.NewTable())
}

// NewSnapshotWith is NewSnapshot sharing an existing interning table —
// the sanitization pipeline's path, which interns feeds long before the
// admitted prefix set (and hence the matrix shape) is known. The whole
// matrix is one backing allocation.
func NewSnapshotWith(time uint32, vps []VP, prefixes []netip.Prefix, paths *aspath.Table) *Snapshot {
	return &Snapshot{
		Time:     time,
		VPs:      vps,
		Prefixes: prefixes,
		Paths:    paths,
		routes:   make([]aspath.ID, len(prefixes)*len(vps)),
		stride:   len(vps),
	}
}

// Row returns prefix p's per-VP path vector — a view into the flat
// backing array (capacity-clipped so appends never bleed into the next
// row). Mutations write through to the snapshot.
func (s *Snapshot) Row(p int) []aspath.ID {
	lo := p * s.stride
	return s.routes[lo : lo+s.stride : lo+s.stride]
}

// RouteID returns the interned path ID at (prefix index, vp index).
func (s *Snapshot) RouteID(p, v int) aspath.ID {
	return s.routes[p*s.stride+v]
}

// SetRouteID stores an already-interned path ID at (prefix index, vp
// index).
func (s *Snapshot) SetRouteID(p, v int, id aspath.ID) {
	s.routes[p*s.stride+v] = id
}

// SetRoute interns the path for (prefix index, vp index).
func (s *Snapshot) SetRoute(p, v int, seq aspath.Seq) {
	s.SetRouteID(p, v, s.Paths.Intern(seq))
}

// Route returns the path sequence at (prefix index, vp index); nil if
// missing.
func (s *Snapshot) Route(p, v int) aspath.Seq {
	return s.Paths.Seq(s.RouteID(p, v))
}

// Atom is one policy atom.
type Atom struct {
	ID int
	// Prefixes are indices into Snapshot.Prefixes, ascending.
	Prefixes []int
	// Vector is the shared per-VP path vector.
	Vector []aspath.ID
	// Origin is the majority origin AS across the vector's non-empty
	// paths (0 if the atom is invisible everywhere).
	Origin uint32
	// MOASConflict marks vectors whose paths disagree on the origin AS.
	MOASConflict bool
}

// Size returns the number of prefixes.
func (a *Atom) Size() int { return len(a.Prefixes) }

// AtomSet is the result of atom computation over one snapshot.
type AtomSet struct {
	Snap  *Snapshot
	Atoms []Atom
	// ByPrefix maps prefix index → atom ID.
	ByPrefix []int
}

var atomSeed = maphash.MakeSeed()

// ComputeAtoms groups prefixes with identical path vectors in one
// pass over the rows: each row is hashed and verified exactly on
// collision, so results are independent of hash quality, and atom IDs
// are first-occurrence order. Runs in O(prefixes × VPs). workers bounds
// only the per-atom origin fan-out (0 means one per CPU); the result is
// identical at any worker count.
//
// When parent is non-nil a "core.compute_atoms" child span records the
// wall time, allocation delta, and input/output cardinalities
// (prefixes, VPs, atoms, workers). A nil parent is the zero-cost path.
func ComputeAtoms(s *Snapshot, parent *obs.Span, workers int) *AtomSet {
	workers = parallel.Workers(workers)
	if parent == nil {
		// Skip even the attr boxing: disabled tracing costs nothing.
		return computeAtomsSeq(s, workers)
	}
	sp := parent.Child("core.compute_atoms")
	as := computeAtomsSeq(s, workers)
	sp.SetAttr("prefixes", len(s.Prefixes))
	sp.SetAttr("vps", len(s.VPs))
	sp.SetAttr("atoms", len(as.Atoms))
	sp.SetAttr("workers", workers)
	sp.End()
	return as
}

// rowBytes encodes a route row into buf (reused across rows) as
// big-endian uint32s, so the whole row hashes in one maphash.Bytes
// call instead of one 4-byte Write per vantage point.
func rowBytes(buf []byte, row []aspath.ID) []byte {
	buf = buf[:0]
	for _, id := range row {
		buf = append(buf, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return buf
}

func rowsEqual(a, b []aspath.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// groupScratch is the reusable grouping state. Atom i is the i-th
// distinct vector seen; reps[i] is its first (representative) prefix
// row, and next[i] the next atom whose row hash collides with atom i's
// (hash collisions chain; equality is always verified with rowsEqual,
// so results never depend on hash quality). Instances recycle through
// groupPool so the steady state of a longitudinal run (hundreds of
// snapshots) re-uses warm maps and slices instead of re-growing them
// per snapshot.
type groupScratch struct {
	m    map[uint64]int32 // row hash → first atom in its chain
	next []int32          // per atom: next atom in the chain, -1 terminates
	buf  []byte           // rowBytes encoding buffer
	reps []int32          // per atom: representative row
}

var groupPool = sync.Pool{
	New: func() any { return &groupScratch{m: make(map[uint64]int32, 1024)} },
}

func getGroupScratch() *groupScratch {
	g := groupPool.Get().(*groupScratch)
	clear(g.m)
	g.next = g.next[:0]
	g.reps = g.reps[:0]
	return g
}

// findOrAdd returns the atom of prefix row p, whose hash is hv, starting
// a new atom represented by p when the vector is new.
func (g *groupScratch) findOrAdd(s *Snapshot, hv uint64, p int32) int32 {
	row := s.Row(int(p))
	head, ok := g.m[hv]
	if ok {
		for a := head; a >= 0; a = g.next[a] {
			if rowsEqual(s.Row(int(g.reps[a])), row) {
				return a
			}
		}
	} else {
		head = -1
	}
	a := int32(len(g.reps))
	g.reps = append(g.reps, p)
	g.next = append(g.next, head)
	g.m[hv] = a
	return a
}

// finalizeAtoms builds the Atoms slice once ByPrefix is fully assigned:
// reps lists each atom's representative row in ID order, so vectors are
// views into the flat matrix, and member lists are carved out of one
// shared backing array by counting sort on atom ID (which preserves the
// ascending prefix order the sequential pass produced). Only the
// returned structures allocate; everything else lives in pooled
// scratch.
func finalizeAtoms(as *AtomSet, reps []int32, workers int) {
	s := as.Snap
	nAtoms := len(reps)
	as.Atoms = make([]Atom, nAtoms)
	starts := make([]int32, nAtoms+1)
	for _, a := range as.ByPrefix {
		starts[a+1]++
	}
	for i := 1; i <= nAtoms; i++ {
		starts[i] += starts[i-1]
	}
	backing := make([]int, len(as.ByPrefix))
	fill := append([]int32(nil), starts[:nAtoms]...)
	for p, a := range as.ByPrefix {
		backing[fill[a]] = p
		fill[a]++
	}
	for i := range as.Atoms {
		lo, hi := starts[i], starts[i+1]
		// Atom.Vector aliases the snapshot's route matrix; AtomSet.Snap
		// pins that snapshot, so the view lives exactly as long as the
		// atoms that reference it.
		as.Atoms[i] = Atom{
			ID:       i,
			Prefixes: backing[lo:hi:hi],
			Vector:   s.Row(int(reps[i])),
		}
	}
	parallel.Chunks(workers, nAtoms, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			as.Atoms[i].Origin, as.Atoms[i].MOASConflict = vectorOrigin(s.Paths, as.Atoms[i].Vector)
		}
		return nil
	})
}

// computeAtomsSeq is the batch grouping: one pass over the rows in
// prefix order, so an atom's ID is the rank of its vector's first
// occurrence. It is the reference the incremental AtomIndex, replay
// and daemon differentials compare against.
func computeAtomsSeq(s *Snapshot, workers int) *AtomSet {
	n := len(s.Prefixes)
	as := &AtomSet{Snap: s, ByPrefix: make([]int, n)}
	g := getGroupScratch()
	defer groupPool.Put(g)

	for p := 0; p < n; p++ {
		g.buf = rowBytes(g.buf, s.Row(p))
		hv := maphash.Bytes(atomSeed, g.buf)
		as.ByPrefix[p] = int(g.findOrAdd(s, hv, int32(p)))
	}
	finalizeAtoms(as, g.reps, workers)
	return as
}

// vectorOrigin returns the majority origin across non-empty paths and
// whether distinct origins appear (a MOAS conflict). Origins per vector
// are almost always 1–2, so a linear scan over a small slice beats a
// per-atom map allocation (BenchmarkVectorOrigin measures the delta);
// the slices grow past their stack-friendly capacity only in the rare
// many-origin MOAS case.
func vectorOrigin(tbl *aspath.Table, vec []aspath.ID) (uint32, bool) {
	origins := make([]uint32, 0, 4)
	counts := make([]int, 0, 4)
	for _, id := range vec {
		if id == aspath.Empty {
			continue
		}
		o, ok := tbl.Origin(id)
		if !ok {
			continue
		}
		found := false
		for i, e := range origins {
			if e == o {
				counts[i]++
				found = true
				break
			}
		}
		if !found {
			origins = append(origins, o)
			counts = append(counts, 1)
		}
	}
	if len(origins) == 0 {
		return 0, false
	}
	best, bestN := origins[0], counts[0]
	for i := 1; i < len(origins); i++ {
		if counts[i] > bestN || (counts[i] == bestN && origins[i] < best) {
			best, bestN = origins[i], counts[i]
		}
	}
	return best, len(origins) > 1
}

// ByOrigin groups atom IDs by their origin AS (MOAS-conflicted atoms
// are grouped under their majority origin).
func (as *AtomSet) ByOrigin() map[uint32][]int {
	out := make(map[uint32][]int)
	for i := range as.Atoms {
		a := &as.Atoms[i]
		if a.Origin == 0 {
			continue
		}
		out[a.Origin] = append(out[a.Origin], a.ID)
	}
	return out
}

// PrefixSet returns the atom's prefixes as values.
func (as *AtomSet) PrefixSet(atomID int) []netip.Prefix {
	a := &as.Atoms[atomID]
	out := make([]netip.Prefix, len(a.Prefixes))
	for i, p := range a.Prefixes {
		out[i] = as.Snap.Prefixes[p]
	}
	return out
}

// GeneralStats are the headline numbers of Tables 1 and 4.
type GeneralStats struct {
	Prefixes          int
	ASes              int
	SingleAtomASes    int
	Atoms             int
	SinglePrefixAtoms int
	MeanAtomSize      float64
	P99AtomSize       int
	LargestAtom       int
	MOASPrefixes      int
}

// Stats computes the general statistics.
func (as *AtomSet) Stats() GeneralStats {
	st := GeneralStats{Prefixes: len(as.Snap.Prefixes), Atoms: len(as.Atoms)}
	atomsPerAS := make(map[uint32]int)
	sizes := make([]int, 0, len(as.Atoms))
	for i := range as.Atoms {
		a := &as.Atoms[i]
		sz := a.Size()
		sizes = append(sizes, sz)
		if sz == 1 {
			st.SinglePrefixAtoms++
		}
		if sz > st.LargestAtom {
			st.LargestAtom = sz
		}
		if a.Origin != 0 {
			atomsPerAS[a.Origin]++
		}
		if a.MOASConflict {
			st.MOASPrefixes += sz
		}
	}
	st.ASes = len(atomsPerAS)
	for _, n := range atomsPerAS {
		if n == 1 {
			st.SingleAtomASes++
		}
	}
	if len(sizes) > 0 {
		sort.Ints(sizes)
		total := 0
		for _, s := range sizes {
			total += s
		}
		st.MeanAtomSize = float64(total) / float64(len(sizes))
		// Nearest-rank percentile: the smallest size with at least 99%
		// of atoms at or below it, i.e. sizes[ceil(0.99·n)−1]. The rank
		// is always within [1, n], so no bounds guard is needed.
		rank := (len(sizes)*99 + 99) / 100
		st.P99AtomSize = sizes[rank-1]
	}
	return st
}

// AtomsPerASCounts returns, for every origin AS, its atom count —
// the Fig 2 (left) distribution.
func (as *AtomSet) AtomsPerASCounts() []int {
	m := as.ByOrigin()
	out := make([]int, 0, len(m))
	for _, atoms := range m {
		out = append(out, len(atoms))
	}
	sort.Ints(out)
	return out
}

// PrefixesPerAtomCounts returns every atom's size — the Fig 2 (right)
// distribution.
func (as *AtomSet) PrefixesPerAtomCounts() []int {
	out := make([]int, 0, len(as.Atoms))
	for i := range as.Atoms {
		out = append(out, as.Atoms[i].Size())
	}
	sort.Ints(out)
	return out
}

// PrefixesPerASCounts returns, for every origin AS, its distinct prefix
// count (Fig 14's third curve).
func (as *AtomSet) PrefixesPerASCounts() []int {
	m := make(map[uint32]int)
	for i := range as.Atoms {
		a := &as.Atoms[i]
		if a.Origin != 0 {
			m[a.Origin] += a.Size()
		}
	}
	out := make([]int, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
