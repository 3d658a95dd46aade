package longitudinal

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/topology"
)

// workerSweep is the table of pool sizes every determinism case runs
// at; workers=1 is the sequential reference the others must match.
func workerSweep() []int {
	return []int{1, 2, runtime.NumCPU()}
}

// TestRunTrendWorkersDeterminism checks the whole longitudinal pipeline
// — topology generation, feed build, sanitization, atom grouping, and
// the trend analyses — produces identical TrendPoints at every pool
// size. This is the PR's hard invariant: parallelism must never change
// a number.
func TestRunTrendWorkersDeterminism(t *testing.T) {
	eras := []topology.Era{topology.EraOf(2008, 1), topology.EraOf(2020, 1)}
	cfg := smallConfig(11)
	cfg.Scale = 0.004

	var ref []TrendPoint
	for _, w := range workerSweep() {
		wcfg := cfg
		wcfg.Workers = w
		points, err := RunTrend(wcfg, eras)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(points) != len(eras) {
			t.Fatalf("workers=%d: %d points", w, len(points))
		}
		if ref == nil {
			ref = points
			continue
		}
		if !reflect.DeepEqual(points, ref) {
			t.Errorf("workers=%d: trend points differ from workers=1:\n%+v\n%+v",
				w, points, ref)
		}
	}
}

// TestRunEraWorkersDeterminism does the same for the full per-era
// pipeline, including the update-window analyses that only RunEra runs.
func TestRunEraWorkersDeterminism(t *testing.T) {
	cfg := smallConfig(12)
	cfg.Scale = 0.004
	era := topology.EraOf(2014, 1)

	var ref *EraResult
	for _, w := range workerSweep() {
		wcfg := cfg
		wcfg.Workers = w
		res, err := RunEra(wcfg, era)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Stats != ref.Stats {
			t.Errorf("workers=%d: stats differ:\n%+v\n%+v", w, res.Stats, ref.Stats)
		}
		if res.Stab8h != ref.Stab8h || res.Stab24h != ref.Stab24h || res.Stab1w != ref.Stab1w {
			t.Errorf("workers=%d: stability differs", w)
		}
		if !reflect.DeepEqual(res.Formation, ref.Formation) {
			t.Errorf("workers=%d: formation differs", w)
		}
		if !reflect.DeepEqual(res.Corr, ref.Corr) {
			t.Errorf("workers=%d: update correlation differs", w)
		}
		if !reflect.DeepEqual(res.Report, ref.Report) {
			t.Errorf("workers=%d: sanitize report differs:\n%+v\n%+v",
				w, res.Report, ref.Report)
		}
	}
}

// TestRunSplitsWorkersDeterminism covers the daily-snapshot split
// window: per-day breakdowns and the observer CDF must not depend on
// how snapshots or detection windows were scheduled.
func TestRunSplitsWorkersDeterminism(t *testing.T) {
	cfg := smallConfig(13)
	cfg.Scale = 0.004
	era := topology.EraOf(2016, 1)

	var ref *SplitStudy
	for _, w := range workerSweep() {
		wcfg := cfg
		wcfg.Workers = w
		study, err := RunSplits(wcfg, era, 4)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = study
			continue
		}
		if !reflect.DeepEqual(study, ref) {
			t.Errorf("workers=%d: split study differs from workers=1", w)
		}
	}
}

// TestRunTrendStageOrderDeterminism pins RunTrend's era-major stage
// pool: its schedule is a function of the era list alone (latest era
// first, equal eras in list order), a permuted era list yields the same
// points in the permuted order, and the six benchmark eras give
// identical points at every pool size.
func TestRunTrendStageOrderDeterminism(t *testing.T) {
	scheduled := func(eras []topology.Era) []topology.Era {
		var out []topology.Era
		for _, k := range trendOrder(eras) {
			out = append(out, eras[k])
		}
		return out
	}
	if got, want := trendOrder(trendEras), []int{5, 4, 3, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("trendOrder(bench eras) = %v, want %v", got, want)
	}
	perm := []int{2, 5, 0, 3, 1, 4}
	permuted := make([]topology.Era, len(perm))
	for i, k := range perm {
		permuted[i] = trendEras[k]
	}
	if got, want := scheduled(permuted), scheduled(trendEras); !reflect.DeepEqual(got, want) {
		t.Errorf("permuted list schedules %v, want %v", got, want)
	}
	dup := []topology.Era{trendEras[0], trendEras[5], trendEras[0]}
	if got, want := trendOrder(dup), []int{1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("trendOrder(%v) = %v, want %v", dup, got, want)
	}

	cfg := warningConfig(7)
	var ref []TrendPoint
	for _, w := range workerSweep() {
		wcfg := cfg
		wcfg.Workers = w
		points, err := RunTrend(wcfg, trendEras)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = points
			continue
		}
		if !reflect.DeepEqual(points, ref) {
			t.Errorf("workers=%d: trend points differ from workers=1", w)
		}
	}
	pcfg := cfg
	pcfg.Workers = 2
	points, err := RunTrend(pcfg, permuted)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range perm {
		if !reflect.DeepEqual(points[i], ref[k]) {
			t.Errorf("permuted run: point %d (%v) differs from the in-order run's", i, permuted[i])
		}
	}
}
