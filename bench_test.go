// Benchmarks: one per table and figure of the paper's evaluation (see
// DESIGN.md's experiment index). Each benchmark drives the code path
// that regenerates the corresponding artifact at a small, fixed scale,
// so `go test -bench . -benchmem` exercises and times the whole
// reproduction surface.
//
// Scales are deliberately small (benchmarks measure the machinery, not
// the Internet); `cmd/atomrepro -scale` runs the full-size versions.
package repro

import (
	"fmt"
	"io"
	"math"
	"net/netip"
	"sort"
	"testing"
	"time"

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/longitudinal"
	"repro/internal/metrics"
	"repro/internal/prefixset"
	"repro/internal/topology"
)

// benchConfig is the shared tiny-scale configuration.
func benchConfig() longitudinal.Config {
	cfg := longitudinal.DefaultConfig(7)
	cfg.Scale = 0.004
	return cfg
}

// runExperiment benches one experiment end to end.
func runExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables ---

func BenchmarkTable1GeneralStats(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkTable2FormationDistance(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkTable3Stability(b *testing.B)          { runExperiment(b, "table3") }
func BenchmarkTable4IPv6Stats(b *testing.B)          { runExperiment(b, "table4") }
func BenchmarkTable5AbnormalPeers(b *testing.B)      { runExperiment(b, "table5") }
func BenchmarkTable6Repro2002Stability(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7Sensitivity(b *testing.B)        { runExperiment(b, "table7") }

// --- Figures ---

func BenchmarkFig1FormationMethods(b *testing.B)     { runExperiment(b, "fig1") }
func BenchmarkFig2Distributions(b *testing.B)        { runExperiment(b, "fig2") }
func BenchmarkFig3UpdateCorrelation(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkFig4FormationTrend(b *testing.B)       { runExperiment(b, "fig4") }
func BenchmarkFig5StabilityTrend(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkFig6SplitObservers(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig7SplitBreakdown(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig8IPv6Distributions(b *testing.B)    { runExperiment(b, "fig8") }
func BenchmarkFig9IPv6StabilityTrend(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10IPv6UpdateCorr(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig11IPv6FormationTrend(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12FullFeedThreshold(b *testing.B)   { runExperiment(b, "fig12") }
func BenchmarkFig13FullFeedPeers(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14Repro2002Stats(b *testing.B)      { runExperiment(b, "fig14") }
func BenchmarkFig15Repro2002UpdateCorr(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16SplitBreakdownFull(b *testing.B)  { runExperiment(b, "fig16") }

// Ablation experiments (DESIGN.md design choices).

func BenchmarkAblationSanitize(b *testing.B)          { runExperiment(b, "ablation-sanitize") }
func BenchmarkAblationFormationSampling(b *testing.B) { runExperiment(b, "ablation-sampling") }

// --- Ablations and core micro-benchmarks (DESIGN.md design choices) ---

// BenchmarkAtomComputation isolates the core contribution: grouping a
// sanitized snapshot's route matrix into atoms.
func BenchmarkAtomComputation(b *testing.B) {
	r := longitudinal.NewEraRun(benchConfig(), topology.EraOf(2024, 4))
	atoms, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		b.Fatal(err)
	}
	snap := atoms.Snap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeAtoms(snap, nil, 1)
	}
}

// churnOp is one pre-decoded delta: route (prefix row p, VP column v)
// becomes id.
type churnOp struct {
	p, v int
	id   aspath.ID
}

// decodeChurnOps decodes the era's standard update window and maps each
// element onto the snapshot's matrix — the same mapping replay.Run
// performs — once, outside any benchmark timer, so the timed loop below
// measures only the delta kernel.
func decodeChurnOps(b *testing.B, r *longitudinal.EraRun, snap *core.Snapshot) []churnOp {
	b.Helper()
	prefixRow := make(map[netip.Prefix]int, len(snap.Prefixes))
	for i, p := range snap.Prefixes {
		prefixRow[prefixset.Canonical(p)] = i
	}
	vpCol := make(map[core.VP]int, len(snap.VPs))
	for i, vp := range snap.VPs {
		vpCol[vp] = i
	}
	sources := r.UpdateSources(longitudinal.OffsetBase, longitudinal.OffsetBase+longitudinal.UpdateHours)
	st := bgpstream.NewStream(&bgpstream.Filter{V4Only: true}, sources...)
	st.SetIntern(snap.Paths)
	var ops []churnOp
	for {
		e, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		var id aspath.ID
		switch e.Type {
		case bgpstream.ElemAnnounce, bgpstream.ElemRIB:
			if e.PathUnusable {
				continue
			}
			id = e.InternedPath
		case bgpstream.ElemWithdraw:
			id = aspath.Empty
		default:
			continue
		}
		p, ok := prefixRow[prefixset.Canonical(e.Prefix)]
		if !ok {
			continue
		}
		v, ok := vpCol[core.VP{Collector: e.Collector, ASN: e.PeerASN}]
		if !ok {
			continue
		}
		ops = append(ops, churnOp{p: p, v: v, id: id})
	}
	return ops
}

// BenchmarkChurnReplay measures incremental atom maintenance against
// the same era snapshot BenchmarkAtomComputation recomputes from
// scratch: the standard 4-hour update window is decoded and mapped once
// outside the timer, then its deltas cycle through a warm AtomIndex
// while every ApplyUpdate is individually stamped. Reported metrics:
//
//   - updates/s — sustained delta application rate (kernel only;
//     decode is excluded by construction);
//   - p99_rebucket_ns — nearest-rank 99th percentile of one
//     ApplyUpdate. The replay bar is p99 ≥100× under
//     BenchmarkAtomComputation's ns/op: an update's worst common case
//     must beat recomputing the partition by two orders of magnitude.
//
// The op mix is the real stream's — announces, withdrawals, and the
// duplicates that no-op — so the distribution reflects replay, not a
// synthetic best case. Steady state allocates nothing (the warm-up
// pass brings free lists and the bucket table to high water first).
func BenchmarkChurnReplay(b *testing.B) {
	r := longitudinal.NewEraRun(benchConfig(), topology.EraOf(2024, 4))
	atoms, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		b.Fatal(err)
	}
	snap := atoms.Snap
	ops := decodeChurnOps(b, r, snap)
	if len(ops) == 0 {
		b.Fatal("update window mapped to zero deltas")
	}
	ix := core.NewAtomIndex(snap)
	for _, op := range ops {
		ix.ApplyUpdate(op.p, op.v, op.id) // warm free lists and buckets
	}
	samples := make([]int64, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		t0 := time.Now()
		ix.ApplyUpdate(op.p, op.v, op.id)
		samples[i] = int64(time.Since(t0))
	}
	b.StopTimer()
	if ix.AtomCount() == 0 {
		b.Fatal("index churned to zero atoms")
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(0.99*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	b.ReportMetric(float64(samples[rank]), "p99_rebucket_ns")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkSnapshotBuildFastPath measures the in-memory snapshot path
// (the ablation against the MRT wire round-trip below).
func BenchmarkSnapshotBuildFastPath(b *testing.B) {
	cfg := benchConfig()
	cfg.FastPath = true
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2016, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.SnapshotAt(longitudinal.OffsetBase); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTrendParallel measures the parallel longitudinal sweep
// end to end — six independent eras fanned out across the worker pool.
// workers=1 is the sequential baseline. The pool is clamped by
// parallel.EffectiveWorkers to min(GOMAXPROCS, NumCPU), so on a 2-CPU
// host workers=4 and 8 still run 2 goroutines, and `go test -cpu 8`
// does not lift the clamp; a bench that must run the full pool calls
// parallel.ForceParallel(true) first.
func BenchmarkRunTrendParallel(b *testing.B) {
	eras := []topology.Era{
		topology.EraOf(2004, 1), topology.EraOf(2008, 1),
		topology.EraOf(2012, 1), topology.EraOf(2016, 1),
		topology.EraOf(2020, 1), topology.EraOf(2024, 1),
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				points, err := longitudinal.RunTrend(cfg, eras)
				if err != nil {
					b.Fatal(err)
				}
				if len(points) != len(eras) {
					b.Fatalf("points = %d", len(points))
				}
			}
		})
	}
}

// BenchmarkSnapshotBuildWirePath measures the full MRT encode → parse →
// sanitize round-trip (proven equivalent to the fast path).
func BenchmarkSnapshotBuildWirePath(b *testing.B) {
	cfg := benchConfig()
	cfg.FastPath = false
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2016, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.SnapshotAt(longitudinal.OffsetBase); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormationMethodIII vs II: the paper's §3.4.2 method choice.
func benchFormation(b *testing.B, method metrics.FormationMethod) {
	r := longitudinal.NewEraRun(benchConfig(), topology.EraOf(2024, 4))
	atoms, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		b.Fatal(err)
	}
	opts := metrics.DefaultFormationOptions()
	opts.Method = method
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.FormationDistances(atoms, opts)
	}
}

func BenchmarkFormationMethodIII(b *testing.B) { benchFormation(b, metrics.MethodUniqueCount) }
func BenchmarkFormationMethodII(b *testing.B)  { benchFormation(b, metrics.MethodStripBeforeDistance) }
func BenchmarkFormationMethodI(b *testing.B)   { benchFormation(b, metrics.MethodStripBeforeGrouping) }

// BenchmarkStabilityCompare isolates CAM+MPM between two snapshots.
func BenchmarkStabilityCompare(b *testing.B) {
	r := longitudinal.NewEraRun(benchConfig(), topology.EraOf(2024, 4))
	s1, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		b.Fatal(err)
	}
	s2, _, err := r.SnapshotAt(longitudinal.OffsetBase + longitudinal.Offset8h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.CompareStability(s1, s2)
	}
}
