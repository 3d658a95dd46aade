package parallel

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMain forces the real multi-goroutine pool for the whole package:
// these tests pin the pool machinery itself (claiming, fan-in order,
// cancellation), which the effective-CPU clamp would otherwise
// serialize on a single-core host.
func TestMain(m *testing.M) {
	ForceParallel(true)
	os.Exit(m.Run())
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-5); got != runtime.NumCPU() {
		t.Errorf("Workers(-5) = %d", got)
	}
}

// TestEffectiveWorkers pins the one effective-CPU gate: forced, it
// passes the request through; otherwise, outside race builds, it never
// exceeds min(GOMAXPROCS, NumCPU) and never raises a request.
func TestEffectiveWorkers(t *testing.T) {
	defer ForceParallel(true) // TestMain's setting
	hw := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, w := range []int{0, 1, 2, hw, hw + 1, 64} {
		ForceParallel(true)
		if got := EffectiveWorkers(w); got != w {
			t.Errorf("forced EffectiveWorkers(%d) = %d, want %d", w, got, w)
		}
		ForceParallel(false)
		want := min(w, hw)
		if raceEnabled {
			want = w
		}
		if got := EffectiveWorkers(w); got != want {
			t.Errorf("EffectiveWorkers(%d) = %d, want %d (hw %d, race %v)", w, got, want, hw, raceEnabled)
		}
	}
	// A one-CPU schedule serializes any request, on any host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := EffectiveWorkers(8); !raceEnabled && got != 1 {
		t.Errorf("EffectiveWorkers(8) at GOMAXPROCS=1 = %d, want 1", got)
	}
}

func TestForEachCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		err := ForEach(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d run %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	// Multiple failures: the returned error must be the lowest index's,
	// regardless of scheduling.
	for _, workers := range []int{1, 2, 7} {
		err := ForEach(workers, 20, func(i int) error {
			if i >= 5 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 5" {
			t.Errorf("workers=%d: err = %v, want item 5", workers, err)
		}
	}
}

func TestForEachCancelsAfterError(t *testing.T) {
	// With 2 workers and an immediate failure, far fewer than n items
	// should run: workers stop claiming new items once stop is set.
	var ran atomic.Int32
	boom := errors.New("boom")
	err := ForEach(2, 10_000, func(i int) error {
		ran.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("ran %d items after first error", n)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(workers, 40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(3, 10, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{10, 3}, {10, 1}, {7, 7}, {100, 8}, {5, 4}, {1, 1},
	} {
		prev := 0
		for ci := 0; ci < tc.parts; ci++ {
			lo, hi := ChunkBounds(tc.n, tc.parts, ci)
			if lo != prev {
				t.Fatalf("n=%d parts=%d chunk %d: lo=%d want %d", tc.n, tc.parts, ci, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d parts=%d chunk %d: hi<lo", tc.n, tc.parts, ci)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d parts=%d: chunks cover %d", tc.n, tc.parts, prev)
		}
	}
}

func TestChunksCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 64} {
		const n = 103
		var hits [n]atomic.Int32
		err := Chunks(workers, n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, hits[i].Load())
			}
		}
	}
}
