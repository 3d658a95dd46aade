package metrics

import (
	"net/netip"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prefixset"
)

// Stability holds the §3.5 metrics between two snapshots.
type Stability struct {
	// CAM is the complete-atom-match ratio: the fraction of atoms at t2
	// whose exact prefix set already existed as an atom at t1.
	CAM float64
	// MPM is the maximized-prefix-match ratio: prefixes that stayed
	// grouped under the greedy one-to-one atom mapping.
	MPM float64
	// MatchedAtoms / TotalAtoms back CAM; MatchedPrefixes /
	// TotalPrefixes back MPM.
	MatchedAtoms, TotalAtoms       int
	MatchedPrefixes, TotalPrefixes int
}

// atomSig is a canonical signature of an atom's prefix set.
func atomSig(as *core.AtomSet, id int) string {
	prefixes := as.PrefixSet(id)
	prefixset.SortPrefixes(prefixes)
	b := make([]byte, 0, len(prefixes)*18)
	for _, p := range prefixes {
		a := p.Addr().As16()
		b = append(b, a[:]...)
		b = append(b, byte(p.Bits()), byte(0))
	}
	return string(b)
}

// CompareStability computes CAM and MPM from snapshot t1 to t2. A
// non-nil parent receives a child span with atom counts and the
// resulting match ratios; nil skips tracing entirely.
func CompareStability(t1, t2 *core.AtomSet, parent *obs.Span) Stability {
	if parent == nil {
		return compareStability(t1, t2)
	}
	sp := parent.Child("metrics.compare_stability")
	st := compareStability(t1, t2)
	sp.SetAttr("atoms_t1", len(t1.Atoms))
	sp.SetAttr("atoms_t2", len(t2.Atoms))
	sp.SetAttr("cam", st.CAM)
	sp.SetAttr("mpm", st.MPM)
	sp.End()
	return st
}

func compareStability(t1, t2 *core.AtomSet) Stability {
	st := Stability{TotalAtoms: len(t2.Atoms)}

	// CAM: signatures of t1 atoms, membership test for t2 atoms.
	sigs := make(map[string]struct{}, len(t1.Atoms))
	for i := range t1.Atoms {
		sigs[atomSig(t1, i)] = struct{}{}
	}
	for i := range t2.Atoms {
		if _, ok := sigs[atomSig(t2, i)]; ok {
			st.MatchedAtoms++
		}
	}
	if st.TotalAtoms > 0 {
		st.CAM = float64(st.MatchedAtoms) / float64(st.TotalAtoms)
	}

	// MPM: overlap counts between t1 atoms and t2 atoms via shared
	// prefix values, then a greedy maximum-overlap one-to-one matching.
	t2AtomOf := make(map[netip.Prefix]int, len(t2.Snap.Prefixes))
	for p, pfx := range t2.Snap.Prefixes {
		t2AtomOf[pfx] = t2.ByPrefix[p]
	}
	type pair struct {
		a, b    int
		overlap int
	}
	overlaps := make(map[[2]int]int)
	for p, pfx := range t1.Snap.Prefixes {
		a := t1.ByPrefix[p]
		if b, ok := t2AtomOf[pfx]; ok {
			overlaps[[2]int{a, b}]++
		}
	}
	pairs := make([]pair, 0, len(overlaps))
	for k, n := range overlaps {
		pairs = append(pairs, pair{a: k[0], b: k[1], overlap: n})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].overlap != pairs[j].overlap {
			return pairs[i].overlap > pairs[j].overlap
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	usedA := make(map[int]bool, len(t1.Atoms))
	usedB := make(map[int]bool, len(t2.Atoms))
	matched := 0
	for _, p := range pairs {
		if usedA[p.a] || usedB[p.b] {
			continue
		}
		usedA[p.a] = true
		usedB[p.b] = true
		matched += p.overlap
	}
	st.MatchedPrefixes = matched
	st.TotalPrefixes = len(t1.Snap.Prefixes)
	if st.TotalPrefixes > 0 {
		st.MPM = float64(matched) / float64(st.TotalPrefixes)
	}
	return st
}
