package collector_test

import (
	"testing"

	"repro/internal/aspath"
	"repro/internal/collector"
	"repro/internal/longitudinal"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

var feedsSink *sanitize.FeedSet

// BenchmarkBuildFeeds times the fast path's feed synthesis alone: route
// every unit at every vantage point through the routing engine, fill the
// route table, and lay out the feed set, for one 2024Q1 snapshot at the
// benchmark's 0.004 scale with the era's artifacts and churn overlay.
// Each iteration interns into a fresh table, as an era's first snapshot
// does.
func BenchmarkBuildFeeds(b *testing.B) {
	cfg := longitudinal.DefaultConfig(7)
	cfg.Scale = 0.004
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2024, 1))
	ov := r.Model.OverlayAt(r.Graph, longitudinal.OffsetBase, r.Infra.FullFeedASNs())
	ts := collector.EpochOf(r.Era)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedsSink = collector.BuildFeeds(r.Graph, r.Infra, ov, ts, aspath.NewTable())
	}
}

var ribsSink *collector.Snapshot

// BenchmarkBuildRIBs times the wire path's RIB synthesis for the same
// snapshot as BenchmarkBuildFeeds: the route table, then every
// collector's TABLE_DUMP_V2 archive with its artifacts.
func BenchmarkBuildRIBs(b *testing.B) {
	cfg := longitudinal.DefaultConfig(7)
	cfg.Scale = 0.004
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2024, 1))
	ov := r.Model.OverlayAt(r.Graph, longitudinal.OffsetBase, r.Infra.FullFeedASNs())
	ts := collector.EpochOf(r.Era)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ribsSink = collector.BuildRIBs(r.Graph, r.Infra, ov, ts)
	}
}
