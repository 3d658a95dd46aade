package sanitize_test

import (
	"testing"

	"repro/internal/aspath"
	"repro/internal/collector"
	"repro/internal/longitudinal"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// BenchmarkCleanFeeds times the fast path's sanitize stage alone:
// CleanFeeds over one 2024Q1 snapshot's feed set at the benchmark's
// 0.004 scale, with the era's artifacts and churn overlay. CleanFeeds
// only reads the set, so every iteration sees the same input.
func BenchmarkCleanFeeds(b *testing.B) {
	cfg := longitudinal.DefaultConfig(7)
	cfg.Scale = 0.004
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2024, 1))
	ov := r.Model.OverlayAt(r.Graph, longitudinal.OffsetBase, r.Infra.FullFeedASNs())
	feeds := collector.BuildFeeds(r.Graph, r.Infra, ov, collector.EpochOf(r.Era), aspath.NewTable())
	opts := sanitize.Defaults()
	opts.Family = cfg.Family
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sanitize.CleanFeeds(feeds, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}
