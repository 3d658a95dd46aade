package bgpstream

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/parallel"
)

// mixedSources builds a source set exercising every merge-order hazard:
// clean archives, a truncated one (warning + possible quarantine), one
// with mid-stream garbage (resync), and a reader-backed source (bufio
// path instead of zero-copy).
func mixedSources(t *testing.T) []Source {
	t.Helper()
	good := buildArchive(t)
	corrupt := good[:len(good)-3]
	garbage := append([]byte(nil), good...)
	garbage = append(garbage, bytes.Repeat([]byte{0xff}, 20)...)
	garbage = append(garbage, good...)
	return []Source{
		BytesSource("rrc00", good, bgp.Options{}),
		BytesSource("bad", corrupt, bgp.Options{}),
		BytesSource("route-views2", garbage, bgp.Options{}),
		{Collector: "reader-backed", R: bytes.NewReader(good), Options: bgp.Options{}},
	}
}

// collectAll drains a stream element by element, copying retained
// slices (batch memory is recycled), and returns everything observable:
// elements, warnings, quarantine set, flaps, per-source counts.
type streamResult struct {
	elems       []Elem
	warnings    []Warning
	quarantined []string
	flaps       map[uint32]int
	elemCounts  map[string]int
}

func runStream(t *testing.T, workers int, useBatch bool, intern *aspath.Table) streamResult {
	t.Helper()
	if workers > 1 {
		// The effective-CPU gate would route workers>1 to the sequential
		// path on a single-core host; these tests pin the parallel path
		// itself, so bypass the gate.
		parallel.ForceParallel(true)
		defer parallel.ForceParallel(false)
	}
	s := NewStream(nil, mixedSources(t)...)
	s.SetWorkers(workers)
	if intern != nil {
		s.SetIntern(intern)
	}
	// Parallel materialization decodes every source to completion before
	// serving; sequential streaming has decoded nothing yet. Pin which
	// path ran, so a change that quietly serializes decode fails here.
	// (workers <= 0 resolves per host, so either path is correct.)
	s.ensureRunning()
	drained := 0
	for _, d := range s.decs {
		if d.done {
			drained++
		}
	}
	if workers > 1 && drained != len(s.decs) {
		t.Fatalf("workers=%d: %d of %d sources decoded up front; the parallel path did not run", workers, drained, len(s.decs))
	}
	if workers == 1 && drained != 0 {
		t.Fatalf("workers=1: %d sources decoded up front; want sequential streaming", drained)
	}
	var elems []Elem
	if useBatch {
		for {
			batch, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			elems = append(elems, batch...) // append copies the elements out
		}
	} else {
		for {
			e, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			elems = append(elems, e)
		}
	}
	return streamResult{
		elems:       elems,
		warnings:    s.Warnings(),
		quarantined: s.Quarantined(),
		flaps:       s.StateFlaps(),
		elemCounts:  s.SourceElemCounts(),
	}
}

// sameElems compares element streams field by field. InternedPath is
// compared through its table (raw IDs are interleaving-dependent under
// concurrent interning — the PR2 invariant — so only the resolved
// sequences are comparable across runs).
func sameElems(t *testing.T, a []Elem, ta *aspath.Table, b []Elem, tb *aspath.Table) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("element counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if ta != nil {
			sx, sy := ta.Seq(x.InternedPath), tb.Seq(y.InternedPath)
			if !reflect.DeepEqual(sx, sy) {
				t.Fatalf("elem %d interned path: %v vs %v", i, sx, sy)
			}
		}
		x.InternedPath, y.InternedPath = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("elem %d differs:\n  %+v\n  %+v", i, x, y)
		}
	}
}

// TestStreamDeterministicAcrossWorkers is the merge-order contract:
// the full observable output — every element in order, every warning in
// order, quarantine decisions, flap counts — is identical whether
// sources decode sequentially or fanned out across 8 workers. Run
// under -race this also exercises the worker/merge synchronization.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	t1, t8 := aspath.NewTable(), aspath.NewTable()
	seq := runStream(t, 1, false, t1)
	par := runStream(t, 8, false, t8)

	sameElems(t, seq.elems, t1, par.elems, t8)
	if !reflect.DeepEqual(seq.warnings, par.warnings) {
		t.Errorf("warnings diverge:\n  workers=1: %+v\n  workers=8: %+v", seq.warnings, par.warnings)
	}
	if !reflect.DeepEqual(seq.quarantined, par.quarantined) {
		t.Errorf("quarantine diverges: %v vs %v", seq.quarantined, par.quarantined)
	}
	if !reflect.DeepEqual(seq.flaps, par.flaps) {
		t.Errorf("state flaps diverge: %v vs %v", seq.flaps, par.flaps)
	}
	if !reflect.DeepEqual(seq.elemCounts, par.elemCounts) {
		t.Errorf("per-source counts diverge: %v vs %v", seq.elemCounts, par.elemCounts)
	}
	if len(seq.elems) == 0 {
		t.Fatal("fixture produced no elements")
	}
}

// TestNextBatchMatchesNext: the batch API is a view over the same
// merged sequence — batch iteration and element iteration must yield
// identical streams at any worker count.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, workers := range []int{1, 4} {
		one := runStream(t, workers, false, nil)
		bat := runStream(t, workers, true, nil)
		sameElems(t, one.elems, nil, bat.elems, nil)
		if !reflect.DeepEqual(one.warnings, bat.warnings) {
			t.Errorf("workers=%d: warnings diverge between Next and NextBatch", workers)
		}
	}
}

// TestStreamInternStamping: with an intern table attached, every RIB
// and announce element carries the ID of its flattened path, resolvable
// through the table to the same sequence Path.Sequence produces; other
// element types stay at Empty.
func TestStreamInternStamping(t *testing.T) {
	table := aspath.NewTable()
	res := runStream(t, 1, true, table)
	stamped := 0
	for i, e := range res.elems {
		if e.Type != ElemRIB && e.Type != ElemAnnounce {
			if e.InternedPath != aspath.Empty || e.PathUnusable {
				t.Errorf("elem %d (%v): unexpected intern state", i, e.Type)
			}
			continue
		}
		if e.PathUnusable {
			continue
		}
		want, err := e.Path.Sequence()
		if err != nil {
			t.Fatalf("elem %d: unexpected flatten failure: %v", i, err)
		}
		got := table.Seq(e.InternedPath)
		if len(want) == 0 {
			if e.InternedPath != aspath.Empty {
				t.Errorf("elem %d: empty path interned as %d", i, e.InternedPath)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("elem %d: interned %v, path says %v", i, got, want)
		}
		stamped++
	}
	if stamped == 0 {
		t.Fatal("no elements carried interned paths")
	}
}

// TestStreamWorkersZeroMeansAuto: SetWorkers(0) resolves to one worker
// per CPU and still yields the canonical stream.
func TestStreamWorkersZeroMeansAuto(t *testing.T) {
	auto := runStream(t, 0, true, nil)
	one := runStream(t, 1, false, nil)
	sameElems(t, auto.elems, nil, one.elems, nil)
}
