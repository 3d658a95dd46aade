// Lifecycle differentials: Shutdown mid-ingest must join every daemon
// goroutine (no leaks, no deadlocks, runs under -race in verify.sh),
// queries must keep answering through and after the drain, and a
// restarted daemon re-fed the same streams must converge to the batch
// partition.
package atomd

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultgen/harness"
)

// waitGoroutines polls until the process goroutine count drops back to
// at most want, failing after a generous deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still live (want <= %d):\n%s", n, want, buf)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownMidIngestJoinsEverything slams Shutdown into the middle
// of live sessions: Shutdown must return (closing the conns unblocks
// every session read), every daemon goroutine must join, and the
// post-shutdown index must still answer materialization directly.
func TestShutdownMidIngestJoinsEverything(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(31))
	baseline := runtime.NumGoroutine()

	srv, err := NewServer(Config{Snapshot: buildSnap(t, w.Ribs), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Clients push chunks in a loop until their conns die under them.
	// Errors are the expected outcome here; the test only demands that
	// everything unwinds.
	var wg sync.WaitGroup
	started := make(chan struct{}, len(w.Upds))
	for _, name := range sortedNames(w.Upds) {
		name := name
		data := w.Upds[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr(), name)
			if err != nil {
				started <- struct{}{}
				return
			}
			defer c.Close()
			started <- struct{}{}
			const chunk = 2 << 10
			for {
				for off := 0; off < len(data); off += chunk {
					end := min(off+chunk, len(data))
					if c.Send(data[off:end]) != nil {
						return
					}
				}
				// Keep the session alive but idle once the archive is
				// exhausted; Shutdown will close the conn under us.
				if _, err := c.readResponse(); err != nil {
					return
				}
			}
		}()
	}
	for range w.Upds {
		<-started
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	// The index is quiescent now: the direct (post-shutdown) paths must
	// work and agree with each other.
	as := srv.MaterializeAtoms(1)
	if len(as.Atoms) == 0 {
		t.Fatal("post-shutdown materialization is empty")
	}
	if srv.AtomCount() != len(as.Atoms) {
		t.Fatalf("view says %d atoms, materialization says %d", srv.AtomCount(), len(as.Atoms))
	}
	_ = srv.DeltaStats() // must not deadlock

	// Second Shutdown is an idempotent no-op.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	waitGoroutines(t, baseline)
}

// TestShutdownQuiescentServer covers the boring-but-mandatory path: a
// server that never saw a connection shuts down cleanly.
func TestShutdownQuiescentServer(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(32))
	baseline := runtime.NumGoroutine()
	srv, err := NewServer(Config{Snapshot: buildSnap(t, w.Ribs)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutines(t, baseline)
}

// TestRestartConverges kills a daemon mid-ingest, boots a fresh one
// from the same RIBs, replays the full streams, and demands the batch
// partition — the operational restart story end to end.
func TestRestartConverges(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(33))

	// First incarnation: partial ingest, no drain, hard shutdown.
	srv1 := newTestServer(t, w.Ribs, 1)
	for _, name := range sortedNames(w.Upds) {
		data := w.Upds[name]
		c, err := Dial(srv1.Addr(), name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(data[:recordCut(data, len(data)/3)]); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	// Second incarnation: fresh state from the same RIBs, full replay.
	got := daemonAtoms(t, w.Ribs, w.Upds, 1)
	bat := batchAtoms(t, w.Ribs, w.Upds, 1)
	if !bytes.Equal(got, bat) {
		t.Fatalf("restarted daemon diverges from batch at byte %d", diffIndex(got, bat))
	}
}

// TestConcurrentQueriesDuringIngest hammers the published view — the
// in-process hot path and a TCP query client — while live sessions
// ingest, then checks a post-drain materialization matches batch. The
// -race run of this package makes this the epoch/RCU seam's data-race
// proof.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	w := harness.BuildWorld(harness.DefaultConfig(34))
	srv := newTestServer(t, w.Ribs, 1)
	n := srv.PrefixCount()
	if n == 0 {
		t.Fatal("empty universe")
	}

	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func(g int) {
			defer qwg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, q := i%n, (i*7+1)%n
				same := srv.SameAtom(p, q)
				if p == q && !same {
					t.Errorf("SameAtom(%d,%d) = false for identical rows", p, q)
					return
				}
				if srv.MemberCount(p) <= 0 {
					t.Errorf("MemberCount(%d) <= 0 for an in-range row", p)
					return
				}
				if srv.PrefixAtom(p) < 0 {
					t.Errorf("PrefixAtom(%d) < 0 for an in-range row", p)
					return
				}
				i++
			}
		}(g)
	}
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		qc, err := DialQuery(srv.QueryAddr())
		if err != nil {
			t.Errorf("dial query: %v", err)
			return
		}
		defer qc.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, _, err := qc.Epoch(); err != nil {
				t.Errorf("epoch query: %v", err)
				return
			}
			if _, _, err := qc.SameAtom(i%n, (i+1)%n); err != nil {
				t.Errorf("sameatom query: %v", err)
				return
			}
		}
	}()

	ingestConcurrent(t, srv, w.Upds)
	close(stop)
	qwg.Wait()

	got := RenderAtoms(srv.MaterializeAtoms(1))
	bat := batchAtoms(t, w.Ribs, w.Upds, 1)
	if !bytes.Equal(got, bat) {
		t.Fatalf("partition under concurrent queries diverges from batch at byte %d", diffIndex(got, bat))
	}
}
