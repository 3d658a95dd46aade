package replay

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/faultgen"
	"repro/internal/faultgen/harness"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sanitize"
)

// marshalAtoms renders an AtomSet canonically for byte comparison.
// Vectors are resolved to path *contents*: raw intern IDs are only
// stable within one table (concurrent interning of novel paths assigns
// IDs in interleaving order), so cross-run comparison must look through
// the IDs at the sequences they name.
func marshalAtoms(as *core.AtomSet) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "atoms=%d\nbyprefix=%v\n", len(as.Atoms), as.ByPrefix)
	for i := range as.Atoms {
		a := &as.Atoms[i]
		fmt.Fprintf(&b, "atom %d prefixes=%v origin=%d moas=%v vector=[", a.ID, a.Prefixes, a.Origin, a.MOASConflict)
		for _, id := range a.Vector {
			fmt.Fprintf(&b, " %v", as.Snap.Paths.Seq(id))
		}
		fmt.Fprint(&b, " ]\n")
	}
	return b.Bytes()
}

// sortedSources wraps archives as byte-backed sources in sorted name
// order, so every run sees the same source order.
func sortedSources(archives map[string][]byte) []bgpstream.Source {
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]bgpstream.Source, 0, len(names))
	for _, name := range names {
		out = append(out, bgpstream.BytesSource(name, archives[name], bgp.Options{}))
	}
	return out
}

// buildIndex sanitizes the RIB archives into a fresh snapshot and wraps
// it in an AtomIndex. Each call builds an independent snapshot, so
// replays into different indexes never share mutable state.
func buildIndex(t *testing.T, ribs map[string][]byte) *core.AtomIndex {
	t.Helper()
	opts := sanitize.Defaults()
	opts.Family = 4
	snap, _, err := sanitize.Clean(sortedSources(ribs), nil, opts)
	if err != nil {
		t.Fatalf("sanitize: %v", err)
	}
	if len(snap.Prefixes) == 0 || len(snap.VPs) == 0 {
		t.Fatalf("degenerate snapshot: %d prefixes, %d VPs", len(snap.Prefixes), len(snap.VPs))
	}
	return core.NewAtomIndex(snap)
}

// replayWorld replays upds into a fresh index built from ribs and
// checks the core differential: the incrementally maintained partition
// must equal batch ComputeAtoms on the final matrix, byte for byte.
func replayWorld(t *testing.T, ribs, upds map[string][]byte, workers int) (Stats, []byte) {
	t.Helper()
	if workers > 1 {
		// Run Materialize and ComputeAtoms on the real worker pool even
		// on a single-core host, where the pool's effective-CPU clamp
		// would otherwise run them sequentially.
		parallel.ForceParallel(true)
		defer parallel.ForceParallel(false)
	}
	ix := buildIndex(t, ribs)
	stats, err := Run(ix, sortedSources(upds), Options{})
	if err != nil {
		t.Fatalf("replay (workers=%d): %v", workers, err)
	}
	inc := marshalAtoms(ix.Materialize(workers))
	bat := marshalAtoms(core.ComputeAtoms(ix.Snapshot(), nil, workers))
	if !bytes.Equal(inc, bat) {
		t.Fatalf("workers=%d: incremental partition differs from batch recompute on the final snapshot", workers)
	}
	return stats, inc
}

// TestReplayDifferentialClean pins the tentpole contract on clean
// archives: after replaying every update, AtomIndex == ComputeAtoms on
// the final snapshot, and workers 1 vs 8 produce byte-identical
// partitions and identical stats.
func TestReplayDifferentialClean(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(1))
	st1, m1 := replayWorld(t, w.Ribs, w.Upds, 1)
	st8, m8 := replayWorld(t, w.Ribs, w.Upds, 8)

	if st1.Elems == 0 {
		t.Fatal("clean world replayed zero elements; update generation broke")
	}
	if st1.Applied == 0 {
		t.Fatal("clean world applied zero deltas; replay mapping broke")
	}
	if !bytes.Equal(m1, m8) {
		t.Fatal("workers=1 and workers=8 replays materialized different partitions")
	}
	// Quarantined is a slice; blank it and compare the rest verbatim.
	st1.Quarantined, st8.Quarantined = nil, nil
	if fmt.Sprintf("%+v", st1) != fmt.Sprintf("%+v", st8) {
		t.Fatalf("replay stats diverge across workers:\nw1 %+v\nw8 %+v", st1, st8)
	}
}

// TestReplayDifferentialFaults replays faultgen-damaged churn — every
// fault class — and asserts the incremental partition still equals
// batch recompute on whatever matrix the damaged stream produced, at
// workers 1 and 8. Damage may change *which* elements decode, but it
// must never desynchronize incremental from batch.
func TestReplayDifferentialFaults(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(2))
	for _, class := range faultgen.AllClasses() {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			sched, err := faultgen.Plan(faultgen.Config{
				Seed: 2, Classes: []faultgen.Class{class},
			}, w.Combined)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			damaged, err := faultgen.Apply(sched, w.Combined)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			dupds := make(map[string][]byte, len(w.Upds))
			for name, data := range damaged {
				if len(name) > 4 && name[:4] == "upd/" {
					dupds[name[4:]] = data
				}
			}
			// Clean RIBs, damaged churn: the snapshot base is intact and
			// the damage is confined to the replayed stream.
			st1, m1 := replayWorld(t, w.Ribs, dupds, 1)
			_, m8 := replayWorld(t, w.Ribs, dupds, 8)
			if !bytes.Equal(m1, m8) {
				t.Fatal("workers=1 and workers=8 disagree under damage")
			}
			if st1.Elems == 0 {
				t.Fatal("damaged stream served zero elements; damage should degrade, not erase")
			}
		})
	}
}

// TestReplaySkipAccounting replays against a deliberately narrowed
// snapshot (fewer admitted prefixes/VPs than the stream mentions) and
// checks unmappable elements are counted, not silently dropped.
func TestReplaySkipAccounting(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(3))
	ix := buildIndex(t, w.Ribs)
	reg := obs.NewRegistry()
	stats, err := Run(ix, sortedSources(w.Upds), Options{Metrics: reg})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	mapped := stats.Updates + stats.SkippedPrefix + stats.SkippedVP +
		stats.SkippedUnusable + stats.SkippedType
	if mapped != stats.Elems {
		t.Fatalf("element accounting leaks: %d elems vs %d accounted", stats.Elems, mapped)
	}
	if got := reg.Counter("replay.elems").Value(); got != int64(stats.Elems) {
		t.Fatalf("replay.elems counter %d != stats.Elems %d", got, stats.Elems)
	}
	if got := reg.Counter("replay.applied").Value(); got != int64(stats.Applied) {
		t.Fatalf("replay.applied counter %d != stats.Applied %d", got, stats.Applied)
	}
	// The synthetic churn includes session events and VPs outside the
	// sanitized feed set; at least one skip bucket should be exercised.
	if stats.SkippedPrefix+stats.SkippedVP+stats.SkippedType == 0 {
		t.Fatal("no skips at all; the skip paths are untested by this world")
	}
	ds := ix.Stats()
	if ds.Applied != stats.Applied || ds.NoOps != stats.NoOps {
		t.Fatalf("index stats %+v disagree with replay stats %+v", ds, stats)
	}
}
