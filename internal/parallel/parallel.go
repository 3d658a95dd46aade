// Package parallel is the repo's stdlib-only concurrency layer: a
// bounded worker pool over indexed work lists, with ordered fan-in
// (every item's result lands at its own index, so output order never
// depends on scheduling) and first-error cancellation (a failing item
// stops workers from picking up new items; already-running items
// finish).
//
// The package exists so the longitudinal pipeline can parallelize
// across eras, snapshot offsets, feeds, and prefix ranges while
// keeping one hard invariant: the output for a given seed is
// byte-identical at any worker count, including workers=1, which runs
// the loop inline on the calling goroutine with zero scheduling
// overhead.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values > 0 are used as
// given; zero and negative values mean "one worker per CPU"
// (runtime.NumCPU), the pipeline-wide default.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// forceParallel, when set, bypasses the effective-CPU clamp below so a
// test or bench can exercise the true multi-goroutine pool on a host
// (or under a -cpu override) where the clamp would serialize it.
var forceParallel atomic.Bool

// ForceParallel toggles the effective-CPU clamp bypass. Tests and
// benches that pin the pool's concurrent machinery call
// ForceParallel(true) (and defer ForceParallel(false)); production
// callers never touch it.
func ForceParallel(on bool) { forceParallel.Store(on) }

// EffectiveWorkers clamps a resolved pool size to the hardware
// parallelism actually available: spawning more CPU-bound goroutines
// than min(GOMAXPROCS, NumCPU) buys no concurrency and costs
// scheduling, cache churn, and deeper live heaps (every in-flight item
// holds its working set). Results are unaffected — every pool here
// lands item i's output at index i — so the clamp is invisible except
// in time. Race builds skip the clamp: -race runs exist to catch
// synchronization bugs, so they always exercise the real pool, as does
// anything that called ForceParallel(true). It is the repo's one
// effective-CPU gate: ForEach applies it, and callers that choose
// between a sequential and a concurrent algorithm ask it first.
func EffectiveWorkers(w int) int {
	if raceEnabled || forceParallel.Load() {
		return w
	}
	if hw := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); w > hw {
		return hw
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) using at most workers
// goroutines (workers <= 0 defaults to runtime.NumCPU; the effective
// count never exceeds n). With one worker the loop runs inline on the
// calling goroutine, exactly like the sequential code it replaces.
//
// On error, no new items are started and ForEach returns the error of
// the lowest-indexed item that failed — a deterministic choice even
// though under concurrency a higher-indexed item may fail first.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	workers = EffectiveWorkers(workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64 // next item to claim
		stop    atomic.Bool  // set on first error
		mu      sync.Mutex
		errIdx  = -1 // lowest failing index seen
		firstEr error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstEr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// Map runs fn(i) for every i in [0, n) under ForEach's pool and
// collects the results in index order. On error the partial results
// are discarded and only the (deterministically chosen) error returns.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Chunks splits [0, n) into min(workers, n) contiguous ranges of
// near-equal size and runs body(lo, hi) for each under ForEach's pool.
// Use it when per-item work is too small to schedule individually
// (e.g. per-prefix loops): each worker streams through a whole range.
func Chunks(workers, n int, body func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	parts := Workers(workers)
	if parts > n {
		parts = n
	}
	return ForEach(workers, parts, func(ci int) error {
		lo, hi := ChunkBounds(n, parts, ci)
		return body(lo, hi)
	})
}

// ChunkBounds returns the half-open range [lo, hi) of chunk ci when
// [0, n) is split into parts contiguous near-equal pieces (the first
// n%parts chunks are one element larger). The union of all chunks is
// exactly [0, n), in order.
func ChunkBounds(n, parts, ci int) (lo, hi int) {
	size, rem := n/parts, n%parts
	lo = ci*size + min(ci, rem)
	hi = lo + size
	if ci < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
