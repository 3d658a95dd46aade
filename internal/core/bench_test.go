package core

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/obs"
)

// benchSnapshot builds a snapshot shaped like a small sanitized table:
// nPrefix prefixes × nVP vantage points, with runs of prefixes sharing a
// path vector (so atoms of size >1 exist) and some per-VP variation.
func benchSnapshot(nPrefix, nVP int) *Snapshot {
	vps := make([]VP, nVP)
	for v := range vps {
		vps[v] = VP{Collector: fmt.Sprintf("rrc%02d", v%4), ASN: uint32(3000 + v)}
	}
	prefixes := make([]netip.Prefix, nPrefix)
	for p := range prefixes {
		prefixes[p] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(p >> 8), byte(p), 0}), 24)
	}
	s := NewSnapshot(0, vps, prefixes)
	for p := 0; p < nPrefix; p++ {
		group := p / 7 // ~7-prefix atoms
		for v := 0; v < nVP; v++ {
			if (p+v)%13 == 0 {
				continue // leave some paths empty
			}
			s.SetRoute(p, v, aspath.Seq{uint32(3000 + v), uint32(100 + group%50), uint32(65000 + group)})
		}
	}
	return s
}

// BenchmarkComputeAtoms measures the exported entry point with telemetry
// disabled (nil span) — the path every non-traced run takes.
func BenchmarkComputeAtoms(b *testing.B) {
	s := benchSnapshot(2000, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as := ComputeAtoms(s, nil, 1); len(as.Atoms) == 0 {
			b.Fatal("no atoms")
		}
	}
}

// BenchmarkComputeAtomsBare measures the internal implementation without
// the telemetry wrapper. Comparing against BenchmarkComputeAtoms bounds
// the disabled-telemetry overhead (must stay <2%, per DESIGN.md).
func BenchmarkComputeAtomsBare(b *testing.B) {
	s := benchSnapshot(2000, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as := computeAtomsSeq(s, 1); len(as.Atoms) == 0 {
			b.Fatal("no atoms")
		}
	}
}

// BenchmarkComputeAtomsPool measures the grouping at several pool
// sizes; the pool bounds only the per-atom origin fan-out.
func BenchmarkComputeAtomsPool(b *testing.B) {
	s := benchSnapshot(20000, 50)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if as := ComputeAtoms(s, nil, w); len(as.Atoms) == 0 {
					b.Fatal("no atoms")
				}
			}
		})
	}
}

// BenchmarkVectorOrigin measures the slice-scan majority-origin kernel
// against BenchmarkVectorOriginMap, the map-based implementation it
// replaced (kept below for the comparison).
func BenchmarkVectorOrigin(b *testing.B) {
	tbl, vec := benchVector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o, _ := vectorOrigin(tbl, vec); o == 0 {
			b.Fatal("no origin")
		}
	}
}

func BenchmarkVectorOriginMap(b *testing.B) {
	tbl, vec := benchVector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o, _ := vectorOriginMap(tbl, vec); o == 0 {
			b.Fatal("no origin")
		}
	}
}

// benchVector builds a 50-VP vector with two distinct origins (the
// common MOAS-free shape plus one conflicting path).
func benchVector() (*aspath.Table, []aspath.ID) {
	tbl := aspath.NewTable()
	vec := make([]aspath.ID, 50)
	for v := range vec {
		if v%13 == 0 {
			continue // empty path
		}
		origin := uint32(65001)
		if v == 7 {
			origin = 65002
		}
		vec[v] = tbl.Intern(aspath.Seq{uint32(3000 + v), 100, origin})
	}
	return tbl, vec
}

// vectorOriginMap is the pre-optimization implementation, retained only
// as the benchmark baseline for vectorOrigin.
func vectorOriginMap(tbl *aspath.Table, vec []aspath.ID) (uint32, bool) {
	counts := make(map[uint32]int, 2)
	for _, id := range vec {
		if id == aspath.Empty {
			continue
		}
		if o, ok := tbl.Origin(id); ok {
			counts[o]++
		}
	}
	if len(counts) == 0 {
		return 0, false
	}
	var best uint32
	bestN := -1
	for o, n := range counts {
		if n > bestN || (n == bestN && o < best) {
			best, bestN = o, n
		}
	}
	return best, len(counts) > 1
}

// BenchmarkComputeAtomsTraced measures the fully enabled path: a live
// span with memory stats, parented under a root.
func BenchmarkComputeAtomsTraced(b *testing.B) {
	s := benchSnapshot(2000, 50)
	root := obs.Root("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as := ComputeAtoms(s, root, 1); len(as.Atoms) == 0 {
			b.Fatal("no atoms")
		}
	}
}

// BenchmarkApplyUpdate measures the O(row) delta kernel in steady
// state: an AtomIndex over the BenchmarkComputeAtoms snapshot, churned
// with a deterministic mix of announces (recurring paths), withdrawals,
// and duplicates. After warm-up the free lists and bucket table have
// reached their high-water marks, so the loop is allocation-free —
// compare ns/op here against BenchmarkComputeAtoms for the full-
// recompute-vs-delta ratio the replay path banks on.
func BenchmarkApplyUpdate(b *testing.B) {
	s := benchSnapshot(2000, 50)
	ix := NewAtomIndex(s)
	pool := make([]aspath.ID, 0, 16)
	for i := 0; i < 16; i++ {
		pool = append(pool, s.Paths.Intern(aspath.Seq{uint32(9000 + i), uint32(200 + i%5), uint32(64512 + i)}))
	}
	rnd := churnSeq(99)
	apply := func() {
		p := int(rnd() % uint64(len(s.Prefixes)))
		v := int(rnd() % uint64(len(s.VPs)))
		id := aspath.Empty // withdraw 1 time in 8
		if rnd()%8 != 0 {
			id = pool[rnd()%uint64(len(pool))]
		}
		ix.ApplyUpdate(p, v, id)
	}
	for i := 0; i < 20000; i++ {
		apply() // warm the free lists and bucket table
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
	if ix.AtomCount() == 0 {
		b.Fatal("index churned to zero atoms")
	}
}
