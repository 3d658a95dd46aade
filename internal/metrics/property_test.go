package metrics

import (
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/core"
)

// randomAtomSet builds a random snapshot over a small path alphabet so
// that merging, splitting and missing paths all occur.
func randomAtomSet(r *rand.Rand, nPfx, nVP int, salt byte) *core.AtomSet {
	vps := make([]core.VP, nVP)
	for i := range vps {
		vps[i] = core.VP{Collector: "c", ASN: uint32(100 + i)}
	}
	prefixes := make([]netip.Prefix, nPfx)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, salt, byte(i >> 8), byte(i)}), 32).Masked()
	}
	s := core.NewSnapshot(0, vps, prefixes)
	paths := []aspath.Seq{nil, {9, 1}, {9, 2}, {9, 9, 1}, {8, 7, 1}, {8, 2}}
	for p := 0; p < nPfx; p++ {
		for v := 0; v < nVP; v++ {
			s.SetRoute(p, v, paths[r.Intn(len(paths))])
		}
	}
	return core.ComputeAtoms(s, nil, 1)
}

// mutate produces a second snapshot sharing most routes with the first.
func mutate(r *rand.Rand, base *core.AtomSet, churn float64) *core.AtomSet {
	src := base.Snap
	s := core.NewSnapshot(1, src.VPs, src.Prefixes)
	paths := []aspath.Seq{nil, {9, 1}, {9, 2}, {9, 9, 1}, {8, 7, 1}, {8, 2}}
	for p := range src.Prefixes {
		for v := range src.VPs {
			if r.Float64() < churn {
				s.SetRoute(p, v, paths[r.Intn(len(paths))])
			} else {
				s.SetRoute(p, v, src.Route(p, v))
			}
		}
	}
	return core.ComputeAtoms(s, nil, 1)
}

// TestStabilityProperties checks CAM/MPM invariants over random
// snapshot pairs:
//
//   - identity: CAM(x,x) = MPM(x,x) = 1
//   - bounds: both in [0,1]
//   - MPM accounting: matched prefixes ≤ total prefixes
//   - zero churn ⇒ perfect stability
func TestStabilityProperties(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		a := randomAtomSet(r, 2+r.Intn(50), 1+r.Intn(4), byte(iter))
		ident := CompareStability(a, a, nil)
		if ident.CAM != 1 || ident.MPM != 1 {
			t.Fatalf("iter %d: identity CAM=%v MPM=%v", iter, ident.CAM, ident.MPM)
		}
		b := mutate(r, a, 0.1*r.Float64())
		st := CompareStability(a, b, nil)
		if st.CAM < 0 || st.CAM > 1 || st.MPM < 0 || st.MPM > 1 {
			t.Fatalf("iter %d: out of bounds %+v", iter, st)
		}
		if st.MatchedPrefixes > st.TotalPrefixes {
			t.Fatalf("iter %d: matched > total: %+v", iter, st)
		}
		if st.MatchedAtoms > st.TotalAtoms {
			t.Fatalf("iter %d: matched atoms > total: %+v", iter, st)
		}
		frozen := mutate(r, a, 0)
		if st0 := CompareStability(a, frozen, nil); st0.CAM != 1 || st0.MPM != 1 {
			t.Fatalf("iter %d: zero churn CAM=%v MPM=%v", iter, st0.CAM, st0.MPM)
		}
	}
}

// TestStabilitySymmetricUniverse: CAM is direction-dependent (it is
// normalized by A_t2), but the matched-atom *count* is symmetric: the
// set of shared compositions is the same either way.
func TestStabilityMatchSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 25; iter++ {
		a := randomAtomSet(r, 2+r.Intn(40), 1+r.Intn(3), byte(iter))
		b := mutate(r, a, 0.2)
		ab := CompareStability(a, b, nil)
		ba := CompareStability(b, a, nil)
		if ab.MatchedAtoms != ba.MatchedAtoms {
			t.Fatalf("iter %d: matched atoms asymmetric: %d vs %d",
				iter, ab.MatchedAtoms, ba.MatchedAtoms)
		}
	}
}

// TestFormationProperties checks formation-distance invariants on
// random atom sets: every atom gets exactly one distance, distances are
// ≥ 1, distributions sum to the totals, and d_min ≤ d_max per origin.
func TestFormationProperties(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for iter := 0; iter < 30; iter++ {
		as := randomAtomSet(r, 2+r.Intn(60), 1+r.Intn(4), byte(iter))
		res := FormationDistances(as, DefaultFormationOptions(), nil)
		sum := 0
		for d := 1; d < len(res.AtomsAtDistance); d++ {
			sum += res.AtomsAtDistance[d]
		}
		if sum != res.TotalAtoms {
			t.Fatalf("iter %d: distances sum %d != total %d", iter, sum, res.TotalAtoms)
		}
		if res.AtomsAtDistance[0] != 0 {
			t.Fatalf("iter %d: distance 0 populated", iter)
		}
		sumMin, sumMax := 0, 0
		for d := 1; d < len(res.FirstSplitAtDistance); d++ {
			sumMin += res.FirstSplitAtDistance[d]
			sumMax += res.AllSplitAtDistance[d]
		}
		if sumMin != res.TotalOrigins || sumMax != res.TotalOrigins {
			t.Fatalf("iter %d: origin curves %d/%d != origins %d",
				iter, sumMin, sumMax, res.TotalOrigins)
		}
		// d1 breakdown never exceeds the d1 count.
		if res.D1SingleAtom+res.D1UniquePeers+res.D1Prepend != res.AtomsAtDistance[1] {
			t.Fatalf("iter %d: d1 breakdown %d+%d+%d != %d", iter,
				res.D1SingleAtom, res.D1UniquePeers, res.D1Prepend, res.AtomsAtDistance[1])
		}
		// MOAS-skipped + analyzed ≤ all atoms.
		if res.TotalAtoms+res.SkippedMOAS > len(as.Atoms) {
			t.Fatalf("iter %d: accounting overflow", iter)
		}
	}
}

// TestSplitDetectionProperties: no split events when three identical
// snapshots are compared; every event's observers are valid VPs.
func TestSplitDetectionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for iter := 0; iter < 20; iter++ {
		a := randomAtomSet(r, 2+r.Intn(40), 1+r.Intn(4), byte(iter))
		if events := DetectSplits(a, a, a, nil); len(events) != 0 {
			t.Fatalf("iter %d: identical snapshots produced %d splits", iter, len(events))
		}
		b := mutate(r, a, 0.15)
		for _, e := range DetectSplits(a, a, b, nil) {
			if len(e.Prefixes) < 2 {
				t.Fatalf("iter %d: split of a %d-prefix atom", iter, len(e.Prefixes))
			}
			for _, vp := range e.Observers {
				if vp.Collector != "c" {
					t.Fatalf("iter %d: bogus observer %v", iter, vp)
				}
			}
		}
	}
}
