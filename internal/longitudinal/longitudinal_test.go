package longitudinal

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/topology"
)

func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.006
	return cfg
}

func TestRunEra2004(t *testing.T) {
	res, err := RunEra(smallConfig(5), topology.EraOf(2004, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Prefixes == 0 || res.Stats.Atoms == 0 || res.Stats.ASes == 0 {
		t.Fatalf("empty stats: %+v", res.Stats)
	}
	// Atom count between AS count and prefix count.
	if res.Stats.Atoms < res.Stats.ASes || res.Stats.Atoms > res.Stats.Prefixes {
		t.Errorf("atom count out of range: %+v", res.Stats)
	}
	// Mean atom size > 1.
	if res.Stats.MeanAtomSize <= 1 {
		t.Errorf("mean atom size %v", res.Stats.MeanAtomSize)
	}
	// MOAS below the paper's 5% bound.
	if share := float64(res.Stats.MOASPrefixes) / float64(res.Stats.Prefixes); share > 0.05 {
		t.Errorf("MOAS share %.3f", share)
	}
	// Stability broadly decays with horizon. Toggling churn (prefixes
	// returning to their home group) can produce small inversions at
	// tiny scales, so allow a 3-point tolerance between adjacent
	// horizons while requiring a clear 8h → 1w decline.
	if res.Stab8h.CAM < res.Stab24h.CAM-0.03 || res.Stab24h.CAM < res.Stab1w.CAM-0.03 {
		t.Errorf("CAM not decaying: %v %v %v", res.Stab8h.CAM, res.Stab24h.CAM, res.Stab1w.CAM)
	}
	if res.Stab1w.CAM >= res.Stab8h.CAM {
		t.Errorf("CAM 1w %v not below 8h %v", res.Stab1w.CAM, res.Stab8h.CAM)
	}
	// MPM is prefix-weighted, CAM atom-weighted; at small scale one
	// large atom breaking can push MPM slightly below CAM. Allow a
	// small band rather than strict ordering.
	if res.Stab8h.MPM < res.Stab8h.CAM-0.1 || res.Stab1w.MPM < res.Stab1w.CAM-0.1 {
		t.Errorf("MPM far below CAM: %+v %+v", res.Stab8h, res.Stab1w)
	}
	// Stability in a plausible band.
	if res.Stab8h.CAM < 0.80 || res.Stab8h.CAM > 1.0 {
		t.Errorf("CAM 8h = %v", res.Stab8h.CAM)
	}
	// Formation distances populated; distance 1 dominated by
	// single-atom ASes in 2004.
	if res.Formation.TotalAtoms == 0 || res.Formation.AtomsAtDistance[1] == 0 {
		t.Errorf("formation: %+v", res.Formation)
	}
}

// TestRunChurnReplayDifferential pins the era-level delta mode: replay
// the standard update window into the base snapshot's AtomIndex and
// check the incrementally maintained partition equals a batch
// recomputation of the final matrix, byte for byte. (Raw intern IDs
// are comparable here because both sides read the same table.)
func TestRunChurnReplayDifferential(t *testing.T) {
	r := NewEraRun(smallConfig(5), topology.EraOf(2024, 1))
	ix, st, err := r.RunChurnReplay(OffsetBase, OffsetBase+UpdateHours)
	if err != nil {
		t.Fatal(err)
	}
	if st.Elems == 0 || st.Applied == 0 {
		t.Fatalf("degenerate replay: %+v", st)
	}
	inc := ix.Materialize(1)
	bat := core.ComputeAtoms(ix.Snapshot(), nil, 1)
	if !reflect.DeepEqual(inc, bat) {
		t.Fatal("churn replay materialized a partition batch recompute disagrees with")
	}
	if ds := ix.Stats(); ds.Applied != st.Applied || ds.NoOps != st.NoOps {
		t.Fatalf("index stats %+v disagree with replay stats %+v", ds, st)
	}
}

// TestUpdateCorrelationAtomsBeatASes uses a long window (1 day) for a
// statistically meaningful Fig 3 comparison at test scale.
func TestUpdateCorrelationAtomsBeatASes(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Scale = 0.012
	r := NewEraRun(cfg, topology.EraOf(2012, 1))
	base, _, err := r.SnapshotAt(OffsetBase)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := r.Updates(OffsetBase, OffsetBase+1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 50 {
		t.Fatalf("only %d records", len(records))
	}
	corr := metrics.CorrelateUpdates(base, records, 7)
	atomWins, comparisons := 0, 0
	for k := 2; k <= 6; k++ {
		pa, ps := corr.Atom[k].Pr(), corr.AS[k].Pr()
		if pa < 0 || ps < 0 {
			continue
		}
		comparisons++
		if pa > ps {
			atomWins++
		}
	}
	if comparisons == 0 {
		t.Fatal("no size buckets to compare")
	}
	if atomWins*2 < comparisons {
		t.Errorf("atoms won only %d/%d size buckets; atom=%+v as=%+v",
			atomWins, comparisons, corr.Atom[2:7], corr.AS[2:7])
	}
	// And atoms must be seen in full a meaningful fraction of the time.
	if pr := corr.Atom[2].Pr(); pr < 0.2 {
		t.Errorf("Pr_full(atom, 2) = %v", pr)
	}
}

func TestRunEraDeterminism(t *testing.T) {
	a, err := RunEra(smallConfig(6), topology.EraOf(2010, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEra(smallConfig(6), topology.EraOf(2010, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Stab8h != b.Stab8h || a.Stab1w != b.Stab1w {
		t.Error("stability differs")
	}
}

func TestRunEraV6(t *testing.T) {
	cfg := smallConfig(7)
	cfg.Family = 6
	res, err := RunEra(cfg, topology.EraOf(2024, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Prefixes == 0 || res.Stats.Atoms == 0 {
		t.Fatalf("v6 empty: %+v", res.Stats)
	}
	for _, pfx := range res.Atoms.Snap.Prefixes {
		if pfx.Addr().Is4() {
			t.Fatalf("v4 prefix %v in v6 study", pfx)
		}
	}
}

func TestRun2002Reproduction(t *testing.T) {
	cfg := smallConfig(8)
	cfg.Artifacts = false
	res, err := RunEra(cfg, topology.EraOf(2002, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Atoms.Snap.VPs); got != 13 {
		t.Errorf("2002 VPs = %d, want 13", got)
	}
	// Ratios near the original paper: ~12.5K ASes, 115K prefixes, 26K
	// atoms → atoms/ASes ≈ 2.1, prefixes/atoms ≈ 4.4. Generous bands.
	atomsPerAS := float64(res.Stats.Atoms) / float64(res.Stats.ASes)
	if atomsPerAS < 1.2 || atomsPerAS > 3.5 {
		t.Errorf("2002 atoms/AS = %.2f", atomsPerAS)
	}
	prefixesPerAtom := float64(res.Stats.Prefixes) / float64(res.Stats.Atoms)
	if prefixesPerAtom < 2 || prefixesPerAtom > 8 {
		t.Errorf("2002 prefixes/atom = %.2f", prefixesPerAtom)
	}
}

func TestRunTrend(t *testing.T) {
	eras := []topology.Era{topology.EraOf(2006, 1), topology.EraOf(2015, 1), topology.EraOf(2024, 1)}
	points, err := RunTrend(smallConfig(9), eras)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Full feeds grow over time.
	if !(points[0].FullFeeds < points[2].FullFeeds) {
		t.Errorf("full feeds: %d -> %d", points[0].FullFeeds, points[2].FullFeeds)
	}
	// Threshold grows with table size (Fig 12).
	if !(points[0].FullFeedThreshold < points[2].FullFeedThreshold) {
		t.Errorf("threshold: %d -> %d", points[0].FullFeedThreshold, points[2].FullFeedThreshold)
	}
	// Formation shares are distributions.
	for _, p := range points {
		sum := 0.0
		for _, s := range p.FormationShare {
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%v: formation shares sum %v", p.Era, sum)
		}
	}
	// Distance-1 share shrinks from 2006 to 2024 (Table 2's trend).
	if points[0].FormationShare[1] <= points[2].FormationShare[1] {
		t.Errorf("d1 share did not shrink: %v -> %v",
			points[0].FormationShare[1], points[2].FormationShare[1])
	}
}

func TestRunTrendProgressStream(t *testing.T) {
	var buf strings.Builder
	cfg := smallConfig(9)
	cfg.Scale = 0.004
	cfg.Progress = obs.NewProgress(&buf, "test")
	eras := []topology.Era{topology.EraOf(2006, 1), topology.EraOf(2024, 1)}
	points, err := RunTrend(cfg, eras)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 { // trend, 2× era_done, trend_done
		t.Fatalf("got %d progress lines, want 4:\n%s", len(lines), buf.String())
	}
	var events []obs.ProgressEvent
	for i, line := range lines {
		var ev obs.ProgressEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		events = append(events, ev)
	}
	if events[0].Event != "trend" || events[0].Total != 2 {
		t.Errorf("first event = %+v", events[0])
	}
	wantRows := int64(points[0].Stats.Prefixes + points[1].Stats.Prefixes)
	seen := map[string]bool{}
	for _, ev := range events[1:3] {
		if ev.Event != "era_done" || ev.Total != 2 {
			t.Errorf("era event = %+v", ev)
		}
		seen[ev.Era] = true
	}
	// Era completion order follows the scheduler; both must appear.
	if !seen["2006Q1"] || !seen["2024Q1"] {
		t.Errorf("eras seen = %v", seen)
	}
	last := events[3]
	if last.Event != "trend_done" || last.Done != 2 || last.TotalRows != wantRows {
		t.Errorf("final event = %+v (want total_rows %d)", last, wantRows)
	}
}

func TestRunSplits(t *testing.T) {
	cfg := smallConfig(10)
	cfg.Scale = 0.004
	study, err := RunSplits(cfg, topology.EraOf(2018, 1), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Days) != 6 {
		t.Fatalf("days = %d", len(study.Days))
	}
	if study.CDF.Total == 0 {
		t.Skip("no split events at this tiny scale")
	}
	// Most split events are localized (the paper: 80% ≤ 3 VPs).
	if frac := study.CDF.FractionAtMost(3); frac < 0.3 {
		t.Errorf("only %.2f of events ≤3 observers", frac)
	}
}
