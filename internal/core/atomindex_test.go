package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/aspath"
)

// marshalAtomSet renders an AtomSet canonically so tests can compare
// incremental and batch results byte for byte: ByPrefix, then every
// atom's members, vector IDs, origin, and MOAS flag.
func marshalAtomSet(as *AtomSet) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "atoms=%d prefixes=%d\n", len(as.Atoms), len(as.ByPrefix))
	fmt.Fprintf(&b, "byprefix=%v\n", as.ByPrefix)
	for i := range as.Atoms {
		a := &as.Atoms[i]
		fmt.Fprintf(&b, "atom %d prefixes=%v vector=%v origin=%d moas=%v\n",
			a.ID, a.Prefixes, a.Vector, a.Origin, a.MOASConflict)
	}
	return b.Bytes()
}

// requireEqualBatch asserts the index's materialized partition is
// byte-identical to batch ComputeAtoms on the same matrix.
func requireEqualBatch(t *testing.T, ix *AtomIndex, workers int) {
	t.Helper()
	inc := marshalAtomSet(ix.Materialize(workers))
	bat := marshalAtomSet(ComputeAtoms(ix.Snapshot(), nil, workers))
	if !bytes.Equal(inc, bat) {
		t.Fatalf("incremental != batch\nincremental:\n%s\nbatch:\n%s", inc, bat)
	}
}

// churnSeq returns a deterministic pseudo-random uint64 stream (SplitMix64)
// for exercising the index without math/rand (forbidden here by atomlint).
func churnSeq(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// TestAtomIndexMatchesBatch builds an index, drives it through a long
// churn sequence (announces with recurring and novel paths, withdrawals,
// duplicates), and checks equality with batch recomputation at several
// checkpoints and worker counts.
func TestAtomIndexMatchesBatch(t *testing.T) {
	s := benchSnapshot(500, 12)
	ix := NewAtomIndex(s)
	requireEqualBatch(t, ix, 1)

	rnd := churnSeq(42)
	// A small path pool: recurring paths exercise bucket moves between
	// existing atoms; the occasional novel path exercises creation.
	pool := make([]aspath.ID, 0, 24)
	for i := 0; i < 24; i++ {
		pool = append(pool, s.Paths.Intern(aspath.Seq{uint32(9000 + i), uint32(200 + i%5), uint32(64512 + i)}))
	}
	for step := 0; step < 4000; step++ {
		p := int(rnd() % uint64(len(s.Prefixes)))
		v := int(rnd() % uint64(len(s.VPs)))
		var id aspath.ID
		switch rnd() % 8 {
		case 0: // withdraw
			id = aspath.Empty
		case 1: // novel path
			id = s.Paths.Intern(aspath.Seq{uint32(100000 + step), 1, uint32(65000 + step%97)})
		case 2: // duplicate of the current route
			id = s.RouteID(p, v)
		default:
			id = pool[rnd()%uint64(len(pool))]
		}
		ix.ApplyUpdate(p, v, id)
		if step%997 == 0 {
			requireEqualBatch(t, ix, 1)
		}
	}
	requireEqualBatch(t, ix, 1)
	requireEqualBatch(t, ix, 8)

	st := ix.Stats()
	if st.Updates != 4000 {
		t.Fatalf("Updates = %d, want 4000", st.Updates)
	}
	if st.Applied+st.NoOps != st.Updates {
		t.Fatalf("Applied(%d)+NoOps(%d) != Updates(%d)", st.Applied, st.NoOps, st.Updates)
	}
	if st.Created == 0 || st.Retired == 0 {
		t.Fatalf("churn minted %d and retired %d atoms; want both > 0", st.Created, st.Retired)
	}
}

// TestAtomIndexEmptyRowRetirement withdraws a prefix's routes one by
// one: the all-empty row must join the all-empty atom (exactly as batch
// grouping would), and each atom left memberless must retire.
func TestAtomIndexEmptyRowRetirement(t *testing.T) {
	s := benchSnapshot(50, 4)
	// Make prefix 0 the sole member of its atom by giving it a unique path.
	solo := s.Paths.Intern(aspath.Seq{7777, 7778, 7779})
	for v := 0; v < 4; v++ {
		s.SetRouteID(0, v, solo)
	}
	// Prefix 1 becomes the all-empty row so an empty atom exists.
	for v := 0; v < 4; v++ {
		s.SetRouteID(1, v, aspath.Empty)
	}
	ix := NewAtomIndex(s)
	requireEqualBatch(t, ix, 1)
	before := ix.AtomCount()

	var lastDelta Delta
	for v := 0; v < 4; v++ {
		lastDelta = ix.ApplyUpdate(0, v, aspath.Empty)
	}
	// The final withdrawal empties the row: its singleton atom retires
	// and the prefix lands in the existing all-empty atom.
	if !lastDelta.Retired {
		t.Fatalf("last withdrawal did not retire the singleton atom: %+v", lastDelta)
	}
	if lastDelta.Created {
		t.Fatalf("empty row minted a new atom instead of joining the all-empty atom: %+v", lastDelta)
	}
	if !ix.SameAtom(0, 1) {
		t.Fatal("all-empty rows 0 and 1 are in different atoms")
	}
	if got := ix.AtomCount(); got >= before+4 {
		t.Fatalf("atom count grew from %d to %d under pure withdrawal", before, got)
	}
	requireEqualBatch(t, ix, 1)
}

// TestAtomIndexFirstRoute announces the first route of a previously
// invisible prefix: it must leave the all-empty atom and (here) mint a
// fresh atom, matching batch.
func TestAtomIndexFirstRoute(t *testing.T) {
	s := benchSnapshot(50, 4)
	for v := 0; v < 4; v++ {
		s.SetRouteID(3, v, aspath.Empty)
		s.SetRouteID(4, v, aspath.Empty)
	}
	ix := NewAtomIndex(s)
	if !ix.SameAtom(3, 4) {
		t.Fatal("two all-empty rows should share the empty atom")
	}
	id := s.Paths.Intern(aspath.Seq{11, 22, 33})
	d := ix.ApplyUpdate(3, 1, id)
	if d.NoOp || !d.Created {
		t.Fatalf("first route should create an atom: %+v", d)
	}
	if d.Retired {
		t.Fatal("the empty atom still has members; it must not retire")
	}
	if ix.SameAtom(3, 4) {
		t.Fatal("prefix 3 gained a route but still shares the empty atom")
	}
	if got := ix.MemberCount(3); got != 1 {
		t.Fatalf("new atom has %d members, want 1", got)
	}
	requireEqualBatch(t, ix, 1)
}

// TestAtomIndexHashCollision forces every row into one bucket via the
// test hash seam: distinct vectors must still land in distinct atoms
// (equality is verified on rows, not hashes), chains must unlink
// correctly on retirement, and the partition must match batch.
func TestAtomIndexHashCollision(t *testing.T) {
	s := benchSnapshot(60, 5)
	ix := newAtomIndexHash(s, func(row []aspath.ID) uint64 { return 12345 })
	if len(ix.buckets) != 1 {
		t.Fatalf("forced collision left %d buckets, want 1", len(ix.buckets))
	}
	requireEqualBatch(t, ix, 1)

	// Churn through the collision chain: moves, retirements, creations
	// all operate on one chain.
	rnd := churnSeq(7)
	ids := []aspath.ID{
		aspath.Empty,
		s.Paths.Intern(aspath.Seq{1, 2, 3}),
		s.Paths.Intern(aspath.Seq{4, 5, 6}),
	}
	for step := 0; step < 600; step++ {
		p := int(rnd() % uint64(len(s.Prefixes)))
		v := int(rnd() % uint64(len(s.VPs)))
		ix.ApplyUpdate(p, v, ids[rnd()%3])
	}
	if len(ix.buckets) != 1 {
		t.Fatalf("churn under forced collision left %d buckets, want 1", len(ix.buckets))
	}
	requireEqualBatch(t, ix, 1)

	// Chain length must equal the live atom count (all atoms share the
	// one bucket).
	n := 0
	for c := ix.buckets[12345]; c >= 0; c = ix.atoms[c].chain {
		n++
	}
	if n != ix.AtomCount() {
		t.Fatalf("collision chain has %d atoms, AtomCount says %d", n, ix.AtomCount())
	}
}

// TestAtomIndexDuplicateUpdate pins the no-op contract: re-announcing
// the current route allocates nothing and flaps no counters.
func TestAtomIndexDuplicateUpdate(t *testing.T) {
	s := benchSnapshot(100, 8)
	ix := NewAtomIndex(s)
	id := s.RouteID(5, 2)
	before := ix.Stats()
	atomsBefore := ix.AtomCount()

	allocs := testing.AllocsPerRun(200, func() {
		d := ix.ApplyUpdate(5, 2, id)
		if !d.NoOp {
			t.Fatal("duplicate update not detected as no-op")
		}
	})
	if allocs != 0 {
		t.Fatalf("duplicate update allocated %.1f times per call, want 0", allocs)
	}
	after := ix.Stats()
	if after.Applied != before.Applied || after.Created != before.Created || after.Retired != before.Retired {
		t.Fatalf("no-op flapped counters: before %+v after %+v", before, after)
	}
	if ix.AtomCount() != atomsBefore {
		t.Fatalf("no-op changed atom count %d -> %d", atomsBefore, ix.AtomCount())
	}
	requireEqualBatch(t, ix, 1)
}

// TestApplyUpdateSteadyStateAllocs pins the acceptance bar: a warmed
// index applies real updates — moves, retirements, creations — with
// zero allocations per ApplyUpdate.
func TestApplyUpdateSteadyStateAllocs(t *testing.T) {
	s := benchSnapshot(400, 10)
	ix := NewAtomIndex(s)
	a := s.Paths.Intern(aspath.Seq{101, 102, 103})
	b := s.Paths.Intern(aspath.Seq{104, 105, 106})
	// Warm the free lists and map geometry: every (atom create, retire,
	// bucket move) this cycle needs has happened at least once.
	for i := 0; i < 4; i++ {
		ix.ApplyUpdate(7, 3, a)
		ix.ApplyUpdate(7, 3, b)
		ix.ApplyUpdate(7, 3, aspath.Empty)
	}
	allocs := testing.AllocsPerRun(500, func() {
		ix.ApplyUpdate(7, 3, a)            // move / create
		ix.ApplyUpdate(7, 3, b)            // move between vectors
		ix.ApplyUpdate(7, 3, aspath.Empty) // withdraw, retire
	})
	if allocs != 0 {
		t.Fatalf("steady-state ApplyUpdate allocates %.2f per cycle, want 0", allocs)
	}
	requireEqualBatch(t, ix, 1)
}

// TestAtomIndexMaterializeStats checks the materialized set feeds the
// standard Stats pipeline identically to batch.
func TestAtomIndexMaterializeStats(t *testing.T) {
	s := benchSnapshot(300, 6)
	ix := NewAtomIndex(s)
	id := s.Paths.Intern(aspath.Seq{1, 2, 65001})
	for i := 0; i < 40; i++ {
		ix.ApplyUpdate(i*7%300, i%6, id)
	}
	got := ix.Materialize(1).Stats()
	want := ComputeAtoms(s, nil, 1).Stats()
	if got != want {
		t.Fatalf("stats diverge:\nincremental %+v\nbatch       %+v", got, want)
	}
}
