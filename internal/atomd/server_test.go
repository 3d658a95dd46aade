// Daemon-vs-batch differential: the tentpole contract is that the
// daemon's materialized atoms equal batch ComputeAtoms byte-for-byte —
// at any quiesced point of the ingest history, at any worker count,
// over clean and faultgen-damaged streams alike. RenderAtoms is the
// comparison currency: it resolves vectors to path contents, so the
// equality is independent of intern-table ID assignment.
package atomd

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/faultgen"
	"repro/internal/faultgen/harness"
	"repro/internal/parallel"
	"repro/internal/replay"
	"repro/internal/sanitize"
)

// sortedNames returns archive names in deterministic order.
func sortedNames(archives map[string][]byte) []string {
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildSnap sanitizes RIB archives into a fresh snapshot. Every call
// builds an independent snapshot: the daemon and the batch baseline
// must never share mutable matrix state.
func buildSnap(t testing.TB, ribs map[string][]byte) *core.Snapshot {
	t.Helper()
	var srcs []bgpstream.Source
	for _, name := range sortedNames(ribs) {
		srcs = append(srcs, bgpstream.BytesSource(name, ribs[name], bgp.Options{}))
	}
	opts := sanitize.Defaults()
	opts.Family = 4
	snap, _, err := sanitize.Clean(srcs, nil, opts)
	if err != nil {
		t.Fatalf("sanitize: %v", err)
	}
	if len(snap.Prefixes) == 0 || len(snap.VPs) == 0 {
		t.Fatalf("degenerate snapshot: %d prefixes, %d VPs", len(snap.Prefixes), len(snap.VPs))
	}
	return snap
}

// newTestServer starts a daemon over a fresh snapshot built from ribs,
// registered for shutdown at test end.
func newTestServer(t testing.TB, ribs map[string][]byte, workers int) *Server {
	t.Helper()
	srv, err := NewServer(Config{Snapshot: buildSnap(t, ribs), Workers: workers})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	return srv
}

// ingestConcurrent streams every collector's update archive into the
// daemon over its own TCP session, all sessions live at once, chunked
// so their frames genuinely interleave on the apply channel. Returns
// after every session has its drained ack — the applied barrier.
func ingestConcurrent(t testing.TB, srv *Server, upds map[string][]byte) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(upds))
	for _, name := range sortedNames(upds) {
		name := name
		data := upds[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr(), name)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			const chunk = 8 << 10
			for off := 0; off < len(data); off += chunk {
				end := min(off+chunk, len(data))
				if err := c.Send(data[off:end]); err != nil {
					errs <- err
					return
				}
			}
			errs <- c.Drain()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("ingest session: %v", err)
		}
	}
}

// daemonAtoms runs the full live path — boot from RIBs, concurrent
// TCP ingest of every update archive, drain — and renders the
// materialized partition.
func daemonAtoms(t testing.TB, ribs, upds map[string][]byte, workers int) []byte {
	t.Helper()
	srv := newTestServer(t, ribs, workers)
	ingestConcurrent(t, srv, upds)
	out := RenderAtoms(srv.MaterializeAtoms(workers))
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	return out
}

// batchAtoms is the offline baseline: the same snapshot build, then
// replay.Run over the same update archives, then batch materialize.
func batchAtoms(t testing.TB, ribs, upds map[string][]byte, workers int) []byte {
	t.Helper()
	if workers > 1 {
		parallel.ForceParallel(true)
		defer parallel.ForceParallel(false)
	}
	ix := core.NewAtomIndex(buildSnap(t, ribs))
	var srcs []bgpstream.Source
	for _, name := range sortedNames(upds) {
		srcs = append(srcs, bgpstream.BytesSource(name, upds[name], bgp.Options{}))
	}
	if _, err := replay.Run(ix, srcs, replay.Options{}); err != nil {
		t.Fatalf("batch replay: %v", err)
	}
	return RenderAtoms(ix.Materialize(workers))
}

func diffIndex(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestDaemonDifferentialClean pins the signature guarantee on clean
// archives: live TCP ingest with concurrent per-collector sessions
// materializes exactly the batch partition, at workers 1 and 8.
func TestDaemonDifferentialClean(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(21))
	bat := batchAtoms(t, w.Ribs, w.Upds, 1)
	for _, workers := range []int{1, 8} {
		got := daemonAtoms(t, w.Ribs, w.Upds, workers)
		if !bytes.Equal(got, bat) {
			t.Fatalf("daemon (workers=%d) diverges from batch at byte %d", workers, diffIndex(got, bat))
		}
	}
	if bytes.Count(bat, []byte("\natom ")) == 0 {
		t.Fatal("differential compared empty partitions; world generation broke")
	}
}

// TestDaemonDifferentialFaults streams faultgen-damaged churn — every
// fault class — through live TCP sessions and demands the daemon still
// equal batch replay over the same damaged bytes. The daemon reuses
// the batch decode path (bgpstream over the reassembled payload), so
// record-level damage must resync and quarantine identically.
func TestDaemonDifferentialFaults(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(22))
	for _, class := range faultgen.AllClasses() {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			sched, err := faultgen.Plan(faultgen.Config{
				Seed: 22, Classes: []faultgen.Class{class},
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
			got := daemonAtoms(t, w.Ribs, dupds, 1)
			bat := batchAtoms(t, w.Ribs, dupds, 1)
			if !bytes.Equal(got, bat) {
				t.Fatalf("daemon diverges from batch under %s damage at byte %d", class, diffIndex(got, bat))
			}
		})
	}
}

// recordCut returns the first frame-aligned offset at or past target,
// walking the archive one record at a time (raw chunks where it does
// not parse, as the client frames them).
func recordCut(data []byte, target int) int {
	off := 0
	for off < len(data) && off < target {
		n := nextRecord(data[off:])
		if n < 0 {
			n = nextChunk(data[off:], false)
		}
		if n <= 0 {
			break
		}
		off += n
	}
	return off
}

// TestDaemonDifferentialMidHistory cuts every collector's stream at a
// record boundary near the midpoint and checks the daemon equals batch
// at that intermediate ingest-history point — the guarantee is "at any
// quiesced point", not only at stream end.
func TestDaemonDifferentialMidHistory(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(23))
	half := make(map[string][]byte, len(w.Upds))
	for name, data := range w.Upds {
		half[name] = data[:recordCut(data, len(data)/2)]
	}
	got := daemonAtoms(t, w.Ribs, half, 1)
	bat := batchAtoms(t, w.Ribs, half, 1)
	if !bytes.Equal(got, bat) {
		t.Fatalf("daemon diverges from batch at the mid-history point, byte %d", diffIndex(got, bat))
	}
	// The cut must be real: full-history partitions should differ from
	// mid-history ones (otherwise this test degenerates into the clean
	// differential).
	full := batchAtoms(t, w.Ribs, w.Upds, 1)
	if bytes.Equal(bat, full) {
		t.Log("mid-history equals full history for this world; cut exercised nothing extra")
	}
}

// TestDaemonResumeConverges replays the crash-resume story: each
// collector sends a prefix of its stream, the client dies without a
// drain, and a new client resumes from the dead client's acked offset
// via DialResume. The daemon must converge to exactly the batch
// partition over the full streams — idempotent suffix replay plus the
// per-collector session serialization.
func TestDaemonResumeConverges(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(24))
	srv := newTestServer(t, w.Ribs, 1)
	for _, name := range sortedNames(w.Upds) {
		data := w.Upds[name]
		cut := recordCut(data, len(data)/2)

		c1, err := Dial(srv.Addr(), name)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		if err := c1.Send(data[:cut]); err != nil {
			t.Fatalf("send %s: %v", name, err)
		}
		acked := c1.Acked()
		c1.Close() // crash: no drain, in-flight frames abandoned

		c2, err := DialResume(srv.Addr(), name, acked)
		if err != nil {
			t.Fatalf("resume %s from %d: %v", name, acked, err)
		}
		if err := c2.Send(data[acked:]); err != nil {
			t.Fatalf("resumed send %s: %v", name, err)
		}
		if err := c2.Drain(); err != nil {
			t.Fatalf("resumed drain %s: %v", name, err)
		}
		c2.Close()
	}
	got := RenderAtoms(srv.MaterializeAtoms(1))
	bat := batchAtoms(t, w.Ribs, w.Upds, 1)
	if !bytes.Equal(got, bat) {
		t.Fatalf("resumed daemon diverges from batch at byte %d", diffIndex(got, bat))
	}
	// Resume really re-sent a suffix: at least one collector must have
	// acked less than it sent before the crash, or the scenario was
	// trivially a clean run.
	stats := srv.IngestStats()
	if len(stats) != len(w.Upds) {
		t.Fatalf("expected %d sources, got %d", len(w.Upds), len(stats))
	}
	for _, st := range stats {
		if st.Sessions != 2 {
			t.Fatalf("collector %s: %d sessions, want 2 (crash + resume)", st.Collector, st.Sessions)
		}
	}
}

// TestDaemonNoOpBatchKeepsView feeds the apply loop a batch in which
// every delta re-announces the resident route: the ledger counts the
// no-ops, but the epoch and the published view stay as they were. A
// batch that changes one cell then publishes the next epoch.
func TestDaemonNoOpBatchKeepsView(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(26))
	srv := newTestServer(t, w.Ribs, 1)
	snap := srv.snap
	var noops []delta
	for p := 0; p < len(snap.Prefixes) && len(noops) < deltaFlushSize; p++ {
		for v := range snap.VPs {
			noops = append(noops, delta{p: int32(p), v: int32(v), id: snap.RouteID(p, v)})
		}
	}
	before := srv.view.Load()
	src := srv.source("noop")
	srv.enqueue(applyMsg{src: src, deltas: noops, elems: len(noops)})
	srv.barrier()
	if e := srv.Epoch(); e != 0 {
		t.Fatalf("all-no-op batch advanced the epoch to %d", e)
	}
	if srv.view.Load() != before {
		t.Fatal("all-no-op batch republished the view")
	}
	st := srv.IngestStats()
	if len(st) != 1 || st[0].NoOps != len(noops) || st[0].Applied != 0 || st[0].Updates != len(noops) {
		t.Fatalf("ledger after the no-op batch: %+v, want %d no-ops", st, len(noops))
	}

	// Move one cell to another row's route at the same VP.
	var change []delta
	for p := 1; p < len(snap.Prefixes) && change == nil; p++ {
		if id := snap.RouteID(p, 0); id != snap.RouteID(0, 0) {
			change = []delta{{p: 0, v: 0, id: id}}
		}
	}
	if change == nil {
		t.Fatal("every prefix shares VP 0's route; no changing delta to build")
	}
	srv.enqueue(applyMsg{src: src, deltas: change, elems: 1})
	srv.barrier()
	if e := srv.Epoch(); e != 1 {
		t.Fatalf("a batch that changed a cell left the epoch at %d, want 1", e)
	}
	if st := srv.IngestStats(); st[0].Applied != 1 {
		t.Fatalf("ledger after the changing batch: %+v, want 1 applied", st[0])
	}
}

// TestDaemonEpochAdvances checks the published view moves: epoch 0 at
// boot, strictly higher after a drained ingest that applied updates.
func TestDaemonEpochAdvances(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(25))
	srv := newTestServer(t, w.Ribs, 1)
	if e := srv.Epoch(); e != 0 {
		t.Fatalf("boot epoch = %d, want 0", e)
	}
	boot := srv.AtomCount()
	if boot == 0 {
		t.Fatal("boot partition has zero atoms")
	}
	ingestConcurrent(t, srv, w.Upds)
	if e := srv.Epoch(); e == 0 {
		t.Fatal("epoch did not advance after drained ingest")
	}
	st := srv.DeltaStats()
	if st.Applied == 0 {
		t.Fatal("drained ingest applied zero deltas")
	}
	stats := srv.IngestStats()
	var elems, updates, skipped int
	for _, s := range stats {
		elems += s.Elems
		updates += s.Updates
		skipped += s.Skipped
	}
	if elems == 0 || updates == 0 {
		t.Fatalf("ingest ledger empty: elems=%d updates=%d", elems, updates)
	}
	if updates+skipped != elems {
		t.Fatalf("ledger accounting leaks: %d updates + %d skipped != %d elems", updates, skipped, elems)
	}
}
