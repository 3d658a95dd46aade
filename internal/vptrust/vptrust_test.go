package vptrust

import (
	"testing"

	"repro/internal/core"
	"repro/internal/longitudinal"
	"repro/internal/metrics"
	"repro/internal/topology"
)

func vp(asn uint32) core.VP { return core.VP{Collector: "c", ASN: asn} }

func ev(observers ...core.VP) metrics.SplitEvent {
	return metrics.SplitEvent{Observers: observers}
}

func TestAnalyzeBasics(t *testing.T) {
	days := [][]metrics.SplitEvent{
		{ev(vp(1)), ev(vp(1)), ev(vp(2)), ev(vp(1), vp(2))},
		{ev(vp(1)), ev(vp(3), vp(2))},
	}
	rep := Analyze(days)
	if rep.Days != 2 || rep.TotalEvents != 6 || rep.SoloEvents != 4 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Scores[0].VP != vp(1) || rep.Scores[0].SoloSplits != 3 {
		t.Errorf("top = %+v", rep.Scores[0])
	}
	if rep.Scores[0].ActiveDays != 2 {
		t.Errorf("active days = %d", rep.Scores[0].ActiveDays)
	}
	// vp(2): 1 solo + 2 shared.
	var s2 Score
	for _, s := range rep.Scores {
		if s.VP == vp(2) {
			s2 = s
		}
	}
	if s2.SoloSplits != 1 || s2.SharedSplits != 2 {
		t.Errorf("vp2 = %+v", s2)
	}
	if got := s2.SoloShare(); got < 0.33 || got > 0.34 {
		t.Errorf("solo share = %v", got)
	}
	if (Score{}).SoloShare() != 0 {
		t.Error("empty solo share")
	}
}

func TestUnreliableThreshold(t *testing.T) {
	var day []metrics.SplitEvent
	// One flapper with 20 solo events, nine quiet VPs with one each.
	for i := 0; i < 20; i++ {
		day = append(day, ev(vp(99)))
	}
	for asn := uint32(1); asn <= 9; asn++ {
		day = append(day, ev(vp(asn)))
	}
	rep := Analyze([][]metrics.SplitEvent{day})
	bad := rep.Unreliable(3)
	if len(bad) != 1 || bad[0].VP != vp(99) {
		t.Fatalf("unreliable = %+v", bad)
	}
	// No events → no unreliable VPs.
	if got := Analyze(nil).Unreliable(3); got != nil {
		t.Errorf("empty analyze unreliable = %+v", got)
	}
}

// TestDetectsPlantedFlappyVP runs the whole pipeline: the churn model
// plants heavy-tailed per-VP event rates; the top-scored VP must be one
// of the few VPs with the highest ground-truth rate.
func TestDetectsPlantedFlappyVP(t *testing.T) {
	cfg := longitudinal.DefaultConfig(5)
	cfg.Scale = 0.005
	const days = 10
	study, err := longitudinal.RunSplits(cfg, topology.EraOf(2018, 1), days)
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive per-day events for Analyze via RunSplits' breakdown...
	// RunSplits already aggregates; drive Analyze directly instead.
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2018, 1))
	snaps := make([]*core.AtomSet, days+2)
	for d := range snaps {
		s, _, err := r.SnapshotAt(longitudinal.OffsetBase + float64(d))
		if err != nil {
			t.Fatal(err)
		}
		snaps[d] = s
	}
	var perDay [][]metrics.SplitEvent
	for d := 0; d+2 < len(snaps); d++ {
		perDay = append(perDay, metrics.DetectSplits(snaps[d], snaps[d+1], snaps[d+2], nil))
	}
	rep := Analyze(perDay)
	if rep.TotalEvents == 0 {
		t.Skip("no split events at this scale")
	}
	if len(rep.Scores) == 0 || rep.Scores[0].SoloSplits == 0 {
		t.Fatal("no solo observers found")
	}
	// Ground truth: rank VPs by the churn model's planted event count.
	top := rep.Scores[0].VP
	topTruth := r.Model.VPVersion(top.ASN, longitudinal.OffsetBase+days)
	better := 0
	for _, vpASN := range r.Infra.FullFeedASNs() {
		if r.Model.VPVersion(vpASN, longitudinal.OffsetBase+days) > topTruth {
			better++
		}
	}
	if better > 3 {
		t.Errorf("top-scored VP %v has ground-truth rank %d (> 3): not the planted flapper",
			top, better+1)
	}
	_ = study
}
