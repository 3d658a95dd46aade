package metrics

import (
	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/obs"
)

// FormationMethod selects the prepending-handling strategy (§3.4.2).
type FormationMethod int

// The three methods the paper weighs.
const (
	// MethodStripBeforeGrouping (i): remove prepending before grouping
	// prefixes into atoms — discards policy information.
	MethodStripBeforeGrouping FormationMethod = 1
	// MethodStripBeforeDistance (ii): atoms from raw paths, prepending
	// stripped before computing distance — can make sibling atoms
	// indistinguishable.
	MethodStripBeforeDistance FormationMethod = 2
	// MethodUniqueCount (iii, adopted): atoms from raw paths; the split
	// is located on raw paths but the distance counts unique ASes.
	MethodUniqueCount FormationMethod = 3
)

// FormationOptions tunes the analysis.
type FormationOptions struct {
	Method FormationMethod
	// MaxAtomsPerOrigin caps the pairwise comparison for mega-origins;
	// a deterministic sample of this size stands in for the full set
	// (0 = unlimited).
	MaxAtomsPerOrigin int
	// MaxDistance caps the reported distance axis (the paper plots 1–5;
	// larger distances are clamped into the last bucket).
	MaxDistance int
}

// DefaultFormationOptions returns the paper's configuration.
func DefaultFormationOptions() FormationOptions {
	return FormationOptions{Method: MethodUniqueCount, MaxAtomsPerOrigin: 800, MaxDistance: 8}
}

// D1Cause classifies why an atom formed at distance 1 (§3.4.3).
type D1Cause int

// Distance-1 causes.
const (
	D1SingleAtom  D1Cause = iota + 1 // only atom of its origin
	D1UniquePeers                    // unique visibility set
	D1Prepend                        // prepending-count difference
)

// FormationResult aggregates formation distances for one snapshot.
type FormationResult struct {
	Method FormationMethod
	// AtomsAtDistance[d] counts atoms with formation distance d
	// (index 0 unused; last bucket absorbs larger distances).
	AtomsAtDistance []int
	// FirstSplitAtDistance[d] counts origins with d_min = d; the
	// "first atoms split" curve.
	FirstSplitAtDistance []int
	// AllSplitAtDistance[d] counts origins with d_max = d; the
	// "all atoms split" curve.
	AllSplitAtDistance []int
	// AtomsAtDistanceMultiAtom counts only atoms whose origin has >1
	// atom (Fig 4's dashed "exclude single atom AS" series).
	AtomsAtDistanceMultiAtom []int
	// Distance-1 breakdown.
	D1SingleAtom, D1UniquePeers, D1Prepend int

	TotalAtoms   int
	TotalOrigins int
	SkippedMOAS  int
}

// FormationDistances runs the analysis over an atom set. A non-nil
// parent receives a child span carrying input/output cardinalities
// (atoms in, origins and distance-tagged atoms out); nil skips tracing
// entirely.
func FormationDistances(as *core.AtomSet, opts FormationOptions, parent *obs.Span) *FormationResult {
	if parent == nil {
		return formationDistances(as, opts)
	}
	sp := parent.Child("metrics.formation_distances")
	res := formationDistances(as, opts)
	sp.SetAttr("atoms", len(as.Atoms))
	sp.SetAttr("origins", res.TotalOrigins)
	sp.SetAttr("tagged_atoms", res.TotalAtoms)
	sp.End()
	return res
}

func formationDistances(as *core.AtomSet, opts FormationOptions) *FormationResult {
	if opts.MaxDistance <= 0 {
		opts.MaxDistance = 8
	}
	if opts.Method == 0 {
		opts.Method = MethodUniqueCount
	}
	res := &FormationResult{
		Method:                   opts.Method,
		AtomsAtDistance:          make([]int, opts.MaxDistance+1),
		FirstSplitAtDistance:     make([]int, opts.MaxDistance+1),
		AllSplitAtDistance:       make([]int, opts.MaxDistance+1),
		AtomsAtDistanceMultiAtom: make([]int, opts.MaxDistance+1),
	}

	snap := as.Snap
	set := as
	if opts.Method == MethodStripBeforeGrouping {
		// Method (i): recompute atoms over prepending-stripped paths.
		stripped := stripPrependingSnapshot(snap)
		set = core.ComputeAtoms(stripped, nil, 1)
		snap = stripped
	}

	analysis := &formationState{
		set:   set,
		snap:  snap,
		opts:  opts,
		cache: make(map[pairKey]int),
	}

	for origin, atomIDs := range set.ByOrigin() {
		_ = origin
		// Exclude MOAS-conflicted atoms, following Afek et al.
		ids := atomIDs[:0:0]
		for _, id := range atomIDs {
			if set.Atoms[id].MOASConflict {
				res.SkippedMOAS++
				continue
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			continue
		}
		res.TotalOrigins++
		analysis.originDistances(res, ids)
	}
	return res
}

type pairKey struct{ a, b aspath.ID }

type formationState struct {
	set   *core.AtomSet
	snap  *core.Snapshot
	opts  FormationOptions
	cache map[pairKey]int
}

// originDistances computes d(a) for every atom of one origin.
func (st *formationState) originDistances(res *FormationResult, ids []int) {
	clampD := func(d int) int {
		if d > st.opts.MaxDistance {
			return st.opts.MaxDistance
		}
		if d < 1 {
			return 1
		}
		return d
	}
	record := func(id, d int, cause D1Cause, multi bool) {
		d = clampD(d)
		res.AtomsAtDistance[d]++
		res.TotalAtoms++
		if multi {
			res.AtomsAtDistanceMultiAtom[d]++
		}
		if d == 1 {
			switch cause {
			case D1SingleAtom:
				res.D1SingleAtom++
			case D1UniquePeers:
				res.D1UniquePeers++
			case D1Prepend:
				res.D1Prepend++
			}
		}
	}

	if len(ids) == 1 {
		record(ids[0], 1, D1SingleAtom, false)
		res.FirstSplitAtDistance[1]++
		res.AllSplitAtDistance[1]++
		return
	}

	sample := ids
	if st.opts.MaxAtomsPerOrigin > 0 && len(ids) > st.opts.MaxAtomsPerOrigin {
		// Deterministic stride sample.
		stride := len(ids) / st.opts.MaxAtomsPerOrigin
		sample = make([]int, 0, st.opts.MaxAtomsPerOrigin)
		for i := 0; i < len(ids) && len(sample) < st.opts.MaxAtomsPerOrigin; i += stride {
			sample = append(sample, ids[i])
		}
	}

	// Visibility masks: a VP where exactly one of two atoms is missing
	// forces split 1.
	masks := make(map[int][]uint64, len(sample))
	for _, id := range sample {
		masks[id] = visMask(st.set.Atoms[id].Vector)
	}

	dMin, dMax := 0, 0
	for i, idA := range sample {
		best := 0 // max over siblings
		cause := D1Prepend
		for j, idB := range sample {
			if i == j {
				continue
			}
			split, visSplit := st.pairSplit(idA, idB, masks[idA], masks[idB])
			if split == aspath.NoSplit {
				// Indistinguishable under method (ii); skip the pair.
				continue
			}
			if split > best {
				best = split
				if split == 1 {
					if visSplit {
						cause = D1UniquePeers
					} else {
						cause = D1Prepend
					}
				}
			}
		}
		if best == 0 {
			// No distinguishable sibling (method (ii) degeneracy).
			best = 1
			cause = D1Prepend
		}
		record(idA, best, cause, true)
		d := clampD(best)
		if dMin == 0 || d < dMin {
			dMin = d
		}
		if d > dMax {
			dMax = d
		}
	}
	res.FirstSplitAtDistance[dMin]++
	res.AllSplitAtDistance[dMax]++
}

// pairSplit returns the overall split point between two atoms: the min
// over VPs, with visSplit reporting whether a visibility difference (an
// empty-vs-present path) produced the 1.
func (st *formationState) pairSplit(a, b int, maskA, maskB []uint64) (split int, visSplit bool) {
	for w := range maskA {
		if maskA[w] != maskB[w] {
			return 1, true
		}
	}
	vecA, vecB := st.set.Atoms[a].Vector, st.set.Atoms[b].Vector
	min := aspath.NoSplit
	for v := range vecA {
		ia, ib := vecA[v], vecB[v]
		if ia == ib {
			continue // identical paths at this VP (both possibly empty)
		}
		s := st.pathSplit(ia, ib)
		if s < min {
			min = s
			if min <= 1 {
				return min, false
			}
		}
	}
	return min, false
}

// pathSplit computes the split point between two interned paths under
// the configured method, memoized per unordered pair.
func (st *formationState) pathSplit(a, b aspath.ID) int {
	if a > b {
		a, b = b, a
	}
	k := pairKey{a, b}
	if s, ok := st.cache[k]; ok {
		return s
	}
	sa, sb := st.snap.Paths.Seq(a), st.snap.Paths.Seq(b)
	var s int
	switch {
	case len(sa) == 0 || len(sb) == 0:
		s = 1 // missing path at this peer forces split 1 (§3.4.1)
	default:
		switch st.opts.Method {
		case MethodStripBeforeDistance:
			s = aspath.SplitRaw(sa.StripPrepending(), sb.StripPrepending())
		case MethodStripBeforeGrouping:
			s = aspath.SplitRaw(sa, sb) // paths already stripped
		default:
			s = aspath.SplitUnique(sa, sb)
		}
	}
	st.cache[k] = s
	return s
}

// visMask packs the vector's non-empty positions into a bitmask.
func visMask(vec []aspath.ID) []uint64 {
	m := make([]uint64, (len(vec)+63)/64)
	for i, id := range vec {
		if id != aspath.Empty {
			m[i/64] |= 1 << (i % 64)
		}
	}
	return m
}

// stripPrependingSnapshot returns a copy of the snapshot with all paths
// prepending-stripped (method (i)'s input).
func stripPrependingSnapshot(s *core.Snapshot) *core.Snapshot {
	out := core.NewSnapshot(s.Time, s.VPs, s.Prefixes)
	for p := range s.Prefixes {
		for v, id := range s.Row(p) {
			if id != aspath.Empty {
				out.SetRoute(p, v, s.Paths.Seq(id).StripPrepending())
			}
		}
	}
	return out
}
