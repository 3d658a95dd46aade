package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

var t0 = time.Date(2024, 1, 15, 8, 0, 0, 0, time.UTC)

// span builds a report node covering [from, to) milliseconds after t0.
func span(name string, from, to float64, children ...*obs.SpanReport) *obs.SpanReport {
	return &obs.SpanReport{
		Name:       name,
		Start:      t0.Add(time.Duration(from * float64(time.Millisecond))),
		DurationMS: to - from,
		Children:   children,
	}
}

// overlapTree reproduces the shape RunTrend emits: the update window
// ("updates") is parented to the era span but runs inside the first
// snapshot's interval, because SnapshotAt resolves the abnormal-peer
// warnings lazily. Subtracting children from parents charges the era
// span 5+55+20+30 = 110ms of children in a 100ms interval: -10ms.
func overlapTree() *obs.SpanReport {
	return span("bench", 0, 100,
		span("longitudinal.trend_era", 0, 100,
			span("era.generate", 0, 5),
			span("snapshot", 5, 60,
				span("collector.build_feeds", 40, 50)),
			span("updates", 10, 30,
				span("collector.build_updates", 12, 20),
				span("metrics.collect_records", 20, 28)),
			span("snapshot", 60, 90,
				span("collector.build_feeds", 60, 70),
				span("sanitize.clean_feeds", 70, 85,
					span("intern", 71, 75),
					span("admission", 75, 80),
					span("dedupe", 80, 82))))) // unknown: inherits sanitize.filters_s
}

func TestLayerTimesOverlappingSiblings(t *testing.T) {
	root := overlapTree()
	nodes, self := selfTimes(root)
	for i, d := range self {
		if d < 0 {
			t.Errorf("span %s has negative self time %v", nodes[i].rep.Name, d)
		}
	}
	got := layerTimes(root)
	ms := time.Millisecond
	want := map[string]time.Duration{
		"topology.generate_s":        5 * ms,
		"routing.overlay_s":          (5 + 10 + 10 + 5) * ms, // [5,10) [30,40) [50,60) [85,90)
		"collector.build_snapshot_s": (10 + 10) * ms,
		"collector.build_updates_s":  8 * ms,
		"decode.ingest_s":            8 * ms,
		"sanitize.filters_s":         (1 + 2 + 3) * ms, // [70,71) dedupe [80,82) [82,85)
		"sanitize.intern_s":          4 * ms,
		"sanitize.admission_s":       5 * ms,
		unattributedLayer:            (2 + 2 + 10) * ms, // updates [10,12) [28,30), era [90,100)
	}
	var sum time.Duration
	for layer, d := range got {
		if d < 0 {
			t.Errorf("layer %s is negative: %v", layer, d)
		}
		sum += d
		if d != want[layer] {
			t.Errorf("layer %s = %v, want %v", layer, d, want[layer])
		}
	}
	for layer := range want {
		if _, ok := got[layer]; !ok {
			t.Errorf("layer %s missing", layer)
		}
	}
	if sum != 100*ms {
		t.Errorf("layers sum to %v, want the root's 100ms", sum)
	}
}

func TestLayerTimesClipToRoot(t *testing.T) {
	// A child that rounding pushed past its root's end is clipped: the
	// layers still sum to the root duration.
	root := span("bench", 0, 10, span("era.generate", 2, 10.004))
	got := layerTimes(root)
	if got["topology.generate_s"] != 8*time.Millisecond || got[unattributedLayer] != 2*time.Millisecond {
		t.Errorf("layers = %v", got)
	}
}

func TestAllocBytesCountsOutermostSpans(t *testing.T) {
	root := span("bench", 0, 10,
		span("sanitize.clean_feeds", 0, 5, span("sanitize.inner", 1, 2)),
		span("snapshot", 5, 10, span("sanitize.ingest", 6, 7)))
	root.Children[0].AllocBytes = 100
	root.Children[0].Children[0].AllocBytes = 40 // already inside the 100
	root.Children[1].Children[0].AllocBytes = 7
	if got := allocBytes(root, "sanitize."); got != 107 {
		t.Errorf("allocBytes = %d, want 107", got)
	}
}
