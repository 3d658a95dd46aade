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
	era := topology.EraOf(2018, 1)
	study, err := longitudinal.RunSplits(cfg, era, days)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(study.Events)
	if rep.TotalEvents == 0 {
		t.Skip("no split events at this scale")
	}
	if len(rep.Scores) == 0 || rep.Scores[0].SoloSplits == 0 {
		t.Fatal("no solo observers found")
	}
	// Ground truth: rank VPs by the churn model's planted event count.
	r := longitudinal.NewEraRun(cfg, era)
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
}

// Unreliable's floor: a VP needs strictly more than max(3, 3×median)
// solo splits. Three solos must never condemn a VP even when the
// median is zero.
func TestUnreliableFloor(t *testing.T) {
	var day []metrics.SplitEvent
	for i := 0; i < 3; i++ {
		day = append(day, ev(vp(7)))
	}
	// A silent majority of shared-only observers keeps the median at 0.
	for i := 0; i < 10; i++ {
		day = append(day, ev(vp(1), vp(2)))
	}
	rep := Analyze([][]metrics.SplitEvent{day})
	if bad := rep.Unreliable(3); len(bad) != 0 {
		t.Errorf("3 solo splits condemned a VP: %+v", bad)
	}
	// One more solo event crosses the floor.
	day = append(day, ev(vp(7)))
	rep = Analyze([][]metrics.SplitEvent{day})
	if bad := rep.Unreliable(3); len(bad) != 1 || bad[0].VP != vp(7) {
		t.Errorf("4 solo splits with zero median: unreliable = %+v", bad)
	}
}
