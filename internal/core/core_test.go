package core

import (
	"hash/maphash"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/aspath"
)

func snapFrom(t *testing.T, vps int, rows [][]string) *Snapshot {
	t.Helper()
	vpList := make([]VP, vps)
	for i := range vpList {
		vpList[i] = VP{Collector: "rrc00", ASN: uint32(100 + i)}
	}
	prefixes := make([]netip.Prefix, len(rows))
	for i := range rows {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	s := NewSnapshot(1000, vpList, prefixes)
	for p, row := range rows {
		if len(row) != vps {
			t.Fatalf("row %d has %d entries, want %d", p, len(row), vps)
		}
		for v, str := range row {
			if str == "" {
				continue
			}
			seq, err := aspath.ParseSeq(str)
			if err != nil {
				t.Fatal(err)
			}
			s.SetRoute(p, v, seq)
		}
	}
	return s
}

func TestComputeAtomsGrouping(t *testing.T) {
	// Prefixes 0,1 share vectors; 2 differs at one VP; 3 missing at VP1.
	s := snapFrom(t, 2, [][]string{
		{"100 200 300", "101 200 300"},
		{"100 200 300", "101 200 300"},
		{"100 200 300", "101 201 300"},
		{"100 200 300", ""},
	})
	as := ComputeAtoms(s, nil, 1)
	if len(as.Atoms) != 3 {
		t.Fatalf("atoms = %d, want 3", len(as.Atoms))
	}
	if as.ByPrefix[0] != as.ByPrefix[1] {
		t.Error("prefixes 0,1 should share an atom")
	}
	if as.ByPrefix[2] == as.ByPrefix[0] || as.ByPrefix[3] == as.ByPrefix[0] || as.ByPrefix[2] == as.ByPrefix[3] {
		t.Error("prefixes 2,3 should be singleton atoms")
	}
	for i := range as.Atoms {
		a := &as.Atoms[i]
		if a.Origin != 300 {
			t.Errorf("atom %d origin = %d", i, a.Origin)
		}
		if a.MOASConflict {
			t.Errorf("atom %d flagged MOAS", i)
		}
	}
}

func TestComputeAtomsMOAS(t *testing.T) {
	s := snapFrom(t, 2, [][]string{
		{"100 200 300", "101 200 999"}, // origins disagree: MOAS
		{"100 200 300", "101 200 300"},
	})
	as := ComputeAtoms(s, nil, 1)
	var moas int
	for i := range as.Atoms {
		if as.Atoms[i].MOASConflict {
			moas++
			// Majority tie (1 vs 1): lowest origin wins deterministically.
			if as.Atoms[i].Origin != 300 {
				t.Errorf("tie-broken origin = %d", as.Atoms[i].Origin)
			}
		}
	}
	if moas != 1 {
		t.Errorf("MOAS atoms = %d", moas)
	}
	st := as.Stats()
	if st.MOASPrefixes != 1 {
		t.Errorf("MOAS prefixes = %d", st.MOASPrefixes)
	}
}

func TestComputeAtomsAllEmptyRow(t *testing.T) {
	s := snapFrom(t, 2, [][]string{
		{"", ""},
		{"100 1", "101 1"},
	})
	as := ComputeAtoms(s, nil, 1)
	if len(as.Atoms) != 2 {
		t.Fatalf("atoms = %d", len(as.Atoms))
	}
	invisible := as.Atoms[as.ByPrefix[0]]
	if invisible.Origin != 0 || invisible.MOASConflict {
		t.Errorf("invisible atom origin = %d", invisible.Origin)
	}
	// Stats must not count origin-0 atoms as an AS.
	if st := as.Stats(); st.ASes != 1 {
		t.Errorf("ASes = %d", st.ASes)
	}
}

func TestStats(t *testing.T) {
	// AS 1: two atoms (sizes 2,1); AS 2: one atom (size 1).
	s := snapFrom(t, 1, [][]string{
		{"100 1"},
		{"100 1"},
		{"100 200 1"},
		{"100 2"},
	})
	as := ComputeAtoms(s, nil, 1)
	st := as.Stats()
	if st.Prefixes != 4 || st.Atoms != 3 || st.ASes != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.SingleAtomASes != 1 {
		t.Errorf("single-atom ASes = %d", st.SingleAtomASes)
	}
	if st.SinglePrefixAtoms != 2 {
		t.Errorf("single-prefix atoms = %d", st.SinglePrefixAtoms)
	}
	if st.MeanAtomSize < 1.32 || st.MeanAtomSize > 1.34 {
		t.Errorf("mean = %v", st.MeanAtomSize)
	}
	if st.LargestAtom != 2 {
		t.Errorf("largest = %d", st.LargestAtom)
	}
	if st.MOASPrefixes != 0 {
		t.Errorf("MOAS = %d", st.MOASPrefixes)
	}
}

func TestDistributions(t *testing.T) {
	s := snapFrom(t, 1, [][]string{
		{"100 1"},
		{"100 1"},
		{"100 200 1"},
		{"100 2"},
	})
	as := ComputeAtoms(s, nil, 1)
	if got := as.AtomsPerASCounts(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("atoms/AS = %v", got)
	}
	if got := as.PrefixesPerAtomCounts(); len(got) != 3 || got[2] != 2 {
		t.Errorf("prefixes/atom = %v", got)
	}
	if got := as.PrefixesPerASCounts(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("prefixes/AS = %v", got)
	}
}

func TestByOriginAndPrefixSet(t *testing.T) {
	s := snapFrom(t, 1, [][]string{
		{"100 1"},
		{"100 200 1"},
		{"100 2"},
	})
	as := ComputeAtoms(s, nil, 1)
	by := as.ByOrigin()
	if len(by[1]) != 2 || len(by[2]) != 1 {
		t.Errorf("ByOrigin = %v", by)
	}
	ps := as.PrefixSet(as.ByPrefix[0])
	if len(ps) != 1 || ps[0] != s.Prefixes[0] {
		t.Errorf("PrefixSet = %v", ps)
	}
}

func TestRouteLookup(t *testing.T) {
	s := snapFrom(t, 3, [][]string{
		{"100 1", "", "102 1"},
	})
	if got := s.Route(0, 1); got != nil {
		t.Errorf("missing route = %v", got)
	}
	if got := s.Route(0, 0); !got.Equal(aspath.Seq{100, 1}) {
		t.Errorf("route = %v", got)
	}
}

// TestComputeAtomsProperty checks the partition invariants on random
// snapshots: atoms partition all prefixes; two prefixes share an atom
// iff their route vectors are identical.
func TestComputeAtomsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		nVP := 1 + r.Intn(5)
		nPfx := 1 + r.Intn(60)
		vps := make([]VP, nVP)
		for i := range vps {
			vps[i] = VP{Collector: "c", ASN: uint32(i)}
		}
		prefixes := make([]netip.Prefix, nPfx)
		for i := range prefixes {
			prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(iter), byte(i), 0}), 24)
		}
		s := NewSnapshot(0, vps, prefixes)
		// Small path alphabet so collisions happen.
		paths := []aspath.Seq{nil, {1, 9}, {2, 9}, {1, 2, 9}, {3, 8}}
		for p := 0; p < nPfx; p++ {
			for v := 0; v < nVP; v++ {
				s.SetRoute(p, v, paths[r.Intn(len(paths))])
			}
		}
		as := ComputeAtoms(s, nil, 1)
		// Partition: every prefix in exactly one atom.
		seen := make([]int, nPfx)
		total := 0
		for i := range as.Atoms {
			for _, p := range as.Atoms[i].Prefixes {
				seen[p]++
				total++
			}
		}
		if total != nPfx {
			t.Fatalf("iter %d: partition covers %d/%d", iter, total, nPfx)
		}
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("iter %d: prefix %d in %d atoms", iter, p, n)
			}
		}
		// Same atom ⟺ same vector.
		for a := 0; a < nPfx; a++ {
			for b := a + 1; b < nPfx; b++ {
				same := as.ByPrefix[a] == as.ByPrefix[b]
				eq := true
				for v := 0; v < nVP; v++ {
					if s.RouteID(a, v) != s.RouteID(b, v) {
						eq = false
						break
					}
				}
				if same != eq {
					t.Fatalf("iter %d: prefixes %d,%d same=%v eq=%v", iter, a, b, same, eq)
				}
			}
		}
	}
}

// TestComputeAtomsDeterminismAcrossWorkers asserts the hard invariant
// at the core layer: ComputeAtoms returns byte-identical atoms (IDs,
// member lists, vectors, origins, ByPrefix) for any worker count, on a
// small snapshot and one with thousands of prefixes.
func TestComputeAtomsDeterminismAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	paths := []aspath.Seq{nil, {1, 9}, {2, 9}, {1, 2, 9}, {3, 8}, {4, 9}, {2, 3, 8}}
	for _, nPfx := range []int{100, 2548} {
		nVP := 6
		vps := make([]VP, nVP)
		for i := range vps {
			vps[i] = VP{Collector: "c", ASN: uint32(i)}
		}
		prefixes := make([]netip.Prefix, nPfx)
		for i := range prefixes {
			prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		}
		s := NewSnapshot(0, vps, prefixes)
		for p := 0; p < nPfx; p++ {
			for v := 0; v < nVP; v++ {
				s.SetRoute(p, v, paths[r.Intn(len(paths))])
			}
		}
		want := ComputeAtoms(s, nil, 1)
		for _, w := range []int{2, 3, runtime.NumCPU(), runtime.NumCPU() + 3} {
			got := ComputeAtoms(s, nil, w)
			if len(got.Atoms) != len(want.Atoms) {
				t.Fatalf("n=%d workers=%d: %d atoms, want %d", nPfx, w, len(got.Atoms), len(want.Atoms))
			}
			if !reflect.DeepEqual(got.ByPrefix, want.ByPrefix) {
				t.Fatalf("n=%d workers=%d: ByPrefix differs", nPfx, w)
			}
			for i := range want.Atoms {
				ga, wa := &got.Atoms[i], &want.Atoms[i]
				if ga.ID != wa.ID || ga.Origin != wa.Origin || ga.MOASConflict != wa.MOASConflict ||
					!reflect.DeepEqual(ga.Prefixes, wa.Prefixes) || !reflect.DeepEqual(ga.Vector, wa.Vector) {
					t.Fatalf("n=%d workers=%d: atom %d differs:\n got %+v\nwant %+v", nPfx, w, i, *ga, *wa)
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("n=%d workers=%d: stats differ", nPfx, w)
			}
		}
	}
}

func TestStatsP99NearestRank(t *testing.T) {
	// 200 atoms: 198 singletons + sizes 5 and 9. Nearest-rank P99 is the
	// 198th of 200 sorted sizes (ceil(0.99·200) = 198) — still 1; with
	// 100 atoms (99 singletons + one 9), rank 99 picks the largest
	// singleton, not the max. Construct directly over synthetic sizes by
	// building snapshots with that atom-size profile.
	mk := func(sizes []int) GeneralStats {
		total := 0
		for _, sz := range sizes {
			total += sz
		}
		prefixes := make([]netip.Prefix, total)
		for i := range prefixes {
			prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		}
		s := NewSnapshot(0, []VP{{Collector: "c", ASN: 1}}, prefixes)
		p := 0
		for ai, sz := range sizes {
			seq := aspath.Seq{uint32(1000 + ai), uint32(1 + ai)}
			for j := 0; j < sz; j++ {
				s.SetRoute(p, 0, seq)
				p++
			}
		}
		return ComputeAtoms(s, nil, 1).Stats()
	}
	sizes := make([]int, 0, 100)
	for i := 0; i < 99; i++ {
		sizes = append(sizes, 1)
	}
	sizes = append(sizes, 9)
	if got := mk(sizes).P99AtomSize; got != 1 {
		t.Errorf("P99 of 99×1+9 = %d, want 1 (nearest rank 99)", got)
	}
	if got := mk([]int{1, 9}).P99AtomSize; got != 9 {
		t.Errorf("P99 of {1,9} = %d, want 9", got)
	}
	if got := mk([]int{3}).P99AtomSize; got != 3 {
		t.Errorf("P99 of {3} = %d, want 3", got)
	}
}

func TestVPString(t *testing.T) {
	if got := (VP{Collector: "rrc00", ASN: 3356}).String(); got != "rrc00/AS3356" {
		t.Errorf("VP.String = %q", got)
	}
}

// TestFlatMatrixMatchesReference is the flat-layout property test: a
// sequence of random SetRoute/SetRouteID writes must leave
// Row/RouteID in exact agreement with a naive [][]ID
// reference model maintained alongside.
func TestFlatMatrixMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		nVP := 1 + r.Intn(6)
		nPfx := 1 + r.Intn(40)
		vps := make([]VP, nVP)
		for i := range vps {
			vps[i] = VP{Collector: "c", ASN: uint32(i)}
		}
		prefixes := make([]netip.Prefix, nPfx)
		for i := range prefixes {
			prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(iter), byte(i), 0}), 24)
		}
		s := NewSnapshot(0, vps, prefixes)
		ref := make([][]aspath.ID, nPfx)
		for i := range ref {
			ref[i] = make([]aspath.ID, nVP)
		}
		paths := []aspath.Seq{nil, {1, 9}, {2, 9}, {1, 2, 9}}
		for op := 0; op < 300; op++ {
			p, v := r.Intn(nPfx), r.Intn(nVP)
			if r.Intn(2) == 0 {
				seq := paths[r.Intn(len(paths))]
				s.SetRoute(p, v, seq)
				ref[p][v] = s.Paths.Intern(seq)
			} else {
				id := aspath.ID(r.Intn(int(3)))
				s.SetRouteID(p, v, id)
				ref[p][v] = id
			}
		}
		for p := 0; p < nPfx; p++ {
			if !reflect.DeepEqual(s.Row(p), ref[p]) {
				t.Fatalf("iter %d: Row(%d) = %v, want %v", iter, p, s.Row(p), ref[p])
			}
			for v := 0; v < nVP; v++ {
				if s.RouteID(p, v) != ref[p][v] {
					t.Fatalf("iter %d: RouteID(%d,%d) = %d, want %d", iter, p, v, s.RouteID(p, v), ref[p][v])
				}
			}
		}
		// Row must be a live view: writes through it land in the matrix.
		row := s.Row(0)
		if nVP > 0 {
			row[0] = 2
			if s.RouteID(0, 0) != 2 {
				t.Fatal("Row is not a view into the matrix")
			}
			// And capacity-clipped: appending must not clobber row 1.
			if nPfx > 1 {
				before := s.RouteID(1, 0)
				_ = append(row, 3)
				if s.RouteID(1, 0) != before {
					t.Fatal("append through Row bled into the next row")
				}
			}
		}
	}
}

// TestSnapshotBuildAllocs pins the flat layout's build cost: the route
// matrix is one backing allocation, so building a snapshot over a
// shared interning table costs O(1) allocations no matter how many
// prefixes it has.
func TestSnapshotBuildAllocs(t *testing.T) {
	tbl := aspath.NewTable()
	vps := make([]VP, 50)
	for i := range vps {
		vps[i] = VP{Collector: "c", ASN: uint32(i)}
	}
	prefixes := make([]netip.Prefix, 5000)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	got := testing.AllocsPerRun(100, func() {
		if s := NewSnapshotWith(0, vps, prefixes, tbl); s.stride != 50 {
			t.Fatal("bad stride")
		}
	})
	if got > 2 {
		t.Errorf("NewSnapshotWith allocs/op = %v, want <= 2 (flat matrix)", got)
	}
}

// TestRowHashAllocs pins the row-hashing hot loop of atom grouping at
// zero allocations: encoding a row into a reused buffer and hashing it
// must not touch the heap.
func TestRowHashAllocs(t *testing.T) {
	s := snapFrom(t, 3, [][]string{
		{"100 200 300", "101 200 300", "102 200 300"},
		{"100 200 300", "101 201 300", ""},
	})
	buf := make([]byte, 0, 4*len(s.VPs))
	var sink uint64
	got := testing.AllocsPerRun(1000, func() {
		for p := range s.Prefixes {
			buf = rowBytes(buf, s.Row(p))
			sink ^= maphash.Bytes(atomSeed, buf)
		}
	})
	if got != 0 {
		t.Errorf("row hashing allocs/op = %v, want 0", got)
	}
	_ = sink
}
