// Package longitudinal drives the paper's per-quarter pipeline over the
// simulated Internet: generate the era's topology, build the collector
// infrastructure, synthesize RIB snapshots at the paper's offsets
// (the 15th 8:00, 15th 16:00, 16th 8:00, 22nd 8:00), sanitize, compute
// atoms, and run the four analyses — plus the daily-snapshot split
// window of §4.4.1 and multi-era trend series (Figures 4, 5, 9, 11,
// 12, 13).
package longitudinal

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/routing"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// Config parameterizes a study.
type Config struct {
	Seed   uint64
	Scale  float64
	Family int // 4 or 6
	// Artifacts injects the §A8.3 defects (on for the modern study).
	Artifacts bool
	// FastPath skips the MRT wire round-trip when building snapshots
	// (provably equivalent; see collector.BuildFeeds).
	FastPath bool
	// Sanitize overrides the cleaning options (zero value → Defaults
	// with Config.Family applied).
	Sanitize *sanitize.Options
	// Workers bounds the worker pools used throughout the pipeline:
	// each era's window and snapshots within RunTrend, the four
	// snapshot offsets within RunEra, daily snapshots within RunSplits,
	// and the origin fan-out of atom grouping. 0 = one worker per CPU,
	// 1 = fully sequential. Every output is byte-identical at any value.
	Workers int
	// Trace, when non-nil, receives one child span per era and stage
	// (generation, each snapshot, the update window, each analysis), so
	// a 20-year study emits a single navigable trace. Nil disables
	// tracing at near-zero cost.
	Trace *obs.Span
	// Metrics, when non-nil, receives the stream/sanitize counters for
	// every stage of the run.
	Metrics *obs.Registry
	// Progress, when non-nil, receives structured progress events as the
	// run advances: RunTrend brackets the era fan-out with trend /
	// trend_done and emits era_done (with the era's admitted prefix
	// count as its row count) as each era completes; RunEra and
	// RunSplits emit one event per finished study. Emission order under
	// a parallel run follows completion order — wall-clock truth — while
	// results stay deterministic. Nil disables the stream at the cost of
	// one nil check per event.
	Progress *obs.Progress
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:      seed,
		Scale:     0.02,
		Family:    4,
		Artifacts: true,
		FastPath:  true,
	}
}

// maxK bounds the update-correlation size axis.
const maxK = 7

// calibrated returns the era's churn model, seeded with seed, and the
// update window's packing and flap rates: the simulator's calibration.
// Rates are events/day at paper scale, interpolated across eras.
func calibrated(seed uint64, era topology.Era) (routing.ChurnModel, collector.UpdateConfig) {
	at := func(v2002, v2004, v2024 float64) float64 {
		return topology.Curve{V2002: v2002, V2004: v2004, V2024: v2024}.At(era)
	}
	model := routing.ChurnModel{
		Seed:               seed,
		UnitEventRate:      at(0.05, 0.05, 0.30),
		VPEventRate:        at(0.10, 0.10, 0.30),
		PrefixMobileShare:  at(0.008, 0.010, 0.130),
		PrefixBaseMoveRate: at(0.003, 0.004, 0.006),
		TransitFlipShare:   0.4,
		VPShiftShare:       0.015,
		RefreshRate:        at(2.0, 2.0, 3.0),
	}
	rates := collector.UpdateConfig{
		FullMessageProb: at(0.85, 0.84, 0.80),
		FlapRate:        at(0.05, 0.05, 0.15),
	}
	return model, rates
}

// Snapshot offsets within a quarter, in days relative to the first
// snapshot (the 15th at 8:00).
const (
	OffsetBase  = 10.0       // day-of-quarter anchor of the first snapshot
	Offset8h    = 1.0 / 3.0  // 15th 16:00
	Offset24h   = 1.0        // 16th 8:00
	Offset1Week = 7.0        // 22nd 8:00
	UpdateHours = 4.0 / 24.0 // §2.4.1: 4 hours of updates
)

// EraRun caches the per-era heavyweight state.
type EraRun struct {
	Cfg   Config
	Era   topology.Era
	Graph *topology.Graph
	Infra *collector.Infra
	Model routing.ChurnModel

	// rates carries the calibrated FullMessageProb and FlapRate of every
	// update window the era builds.
	rates collector.UpdateConfig
	vps   []uint32
	// warnings builds the abnormal-peer window's parse warnings once
	// (updateWarnings); concurrent SnapshotAt callers share the result.
	warnings func() ([]bgpstream.Warning, error)

	// intern is the era's shared AS-path intern table: every snapshot of
	// the era sanitizes against it, so the second and later snapshots
	// (offsets differ by hours to days — most paths recur) intern almost
	// entirely on the allocation-free hit path. Safe because snapshot
	// consumers compare paths by ID equality or by value, never by raw
	// ID across snapshots (the PR2 invariant).
	intern *aspath.Table
}

// NewEraRun generates the era's world.
func NewEraRun(cfg Config, era topology.Era) *EraRun {
	if cfg.Family == 0 {
		cfg.Family = 4
	}
	sp := cfg.Trace.Child("era.generate")
	sp.SetAttr("era", era.String())
	tp := topology.DefaultParams(cfg.Seed)
	if cfg.Scale > 0 {
		tp.Scale = cfg.Scale
	}
	g := topology.Generate(tp, era)
	// VP counts shrink slower than the world (Scale^0.4): the visibility
	// thresholds (≥4 peer ASes) need a realistic vantage-point census.
	ccfg := collector.Config{
		Seed:      cfg.Seed + 1,
		Artifacts: cfg.Artifacts,
		VPScale:   math.Pow(tp.Scale, 0.4),
	}
	if era <= topology.EraOf(2002, 4) {
		// The 2002 reproduction setting: rrc00 with 13 full feeds.
		ccfg.ForceCollectors = 1
		ccfg.ForceFullFeeds = 13
		ccfg.Artifacts = false
	}
	in := collector.BuildInfra(g, ccfg)
	model, rates := calibrated(cfg.Seed+2, era)
	run := &EraRun{Cfg: cfg, Era: era, Graph: g, Infra: in, Model: model, rates: rates,
		vps: in.FullFeedASNs(), intern: aspath.NewTable()}
	run.warnings = sync.OnceValues(run.updateWarnings)
	sp.SetAttr("ases", g.NumASes())
	sp.SetAttr("collectors", len(in.Collectors))
	sp.SetAttr("full_feeds", len(run.vps))
	sp.End()
	return run
}

// sanitizeOptions resolves the effective cleaning options.
func (r *EraRun) sanitizeOptions() sanitize.Options {
	var opts sanitize.Options
	if r.Cfg.Sanitize != nil {
		opts = *r.Cfg.Sanitize
	} else if r.Era <= topology.EraOf(2002, 4) {
		opts = sanitize.Afek2002()
	} else {
		opts = sanitize.Defaults()
	}
	if opts.Family == 0 {
		opts.Family = r.Cfg.Family
	}
	if opts.Intern == nil {
		opts.Intern = r.intern
	}
	return opts
}

// timestamp converts a relative day offset to the snapshot Unix time.
func (r *EraRun) timestamp(t float64) uint32 {
	return collector.EpochOf(r.Era) + uint32((t-OffsetBase)*86400)
}

// SnapshotAt builds and sanitizes the snapshot at day offset t (days
// since quarter start; the first paper snapshot is OffsetBase).
func (r *EraRun) SnapshotAt(t float64) (*core.AtomSet, *sanitize.Report, error) {
	sp := r.Cfg.Trace.Child("snapshot")
	sp.SetAttr("t", t)
	defer sp.End()
	ov := r.Model.OverlayAt(r.Graph, t, r.vps)
	ts := r.timestamp(t)
	opts := r.sanitizeOptions()
	opts.Span = sp
	opts.Metrics = r.Cfg.Metrics
	var feeds *sanitize.FeedSet
	var sources []bgpstream.Source
	if r.Cfg.FastPath {
		bsp := sp.Child("collector.build_feeds")
		feeds = collector.BuildFeeds(r.Graph, r.Infra, ov, ts, opts.Intern)
		bsp.SetAttr("feeds", len(feeds.Feeds))
		bsp.End()
	} else {
		bsp := sp.Child("collector.build_ribs")
		ribs := collector.BuildRIBs(r.Graph, r.Infra, ov, ts)
		sources = bgpstream.SortedSources(ribs.Archives)
		totalBytes := 0
		for _, data := range ribs.Archives {
			totalBytes += len(data)
		}
		bsp.SetAttr("archives", len(sources))
		bsp.SetAttr("bytes", totalBytes)
		bsp.End()
	}
	// The abnormal-peer warnings are read only now, so the build above
	// overlaps a window another task may still be synthesizing.
	warnings, err := r.warnings()
	if err != nil {
		return nil, nil, err
	}
	var snap *core.Snapshot
	var rep *sanitize.Report
	if feeds != nil {
		snap, rep, err = sanitize.CleanFeeds(feeds, warnings, opts)
	} else {
		snap, rep, err = sanitize.Clean(sources, warnings, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	return core.ComputeAtoms(snap, sp, r.Cfg.Workers), rep, nil
}

// UpdateSources synthesizes the update window's archives and returns
// them as byte-backed sources in sorted name order — the deterministic
// element stream behind Updates, exported so churn replay (replay.Run,
// the churn benchmark) can drive an AtomIndex with the
// very same messages the correlation analysis consumes.
func (r *EraRun) UpdateSources(fromT, toT float64) []bgpstream.Source {
	return r.updateSources(fromT, toT, nil)
}

// updateSources is UpdateSources scoped to peers (nil = every peer; see
// collector.UpdateConfig.Peers).
func (r *EraRun) updateSources(fromT, toT float64, peers map[uint32]bool) []bgpstream.Source {
	cfg := r.rates
	cfg.Model = r.Model
	cfg.FromT, cfg.ToT = fromT, toT
	cfg.BaseTime = r.timestamp(fromT)
	cfg.Peers = peers
	return bgpstream.SortedSources(collector.BuildUpdates(r.Graph, r.Infra, cfg))
}

// updateFilter is the family filter every update consumer shares.
func (r *EraRun) updateFilter() *bgpstream.Filter {
	return &bgpstream.Filter{
		V4Only: r.Cfg.Family == 4,
		V6Only: r.Cfg.Family == 6,
	}
}

// Updates synthesizes the update window starting at day offset t and
// returns the per-message records.
func (r *EraRun) Updates(fromT, toT float64) ([]metrics.UpdateRecord, []bgpstream.Warning, error) {
	sp, sources := r.buildUpdates(fromT, toT, nil)
	defer sp.End()
	return metrics.CollectRecords(sources, r.updateFilter(), r.Cfg.Metrics, sp)
}

// buildUpdates opens an update window's "updates" span, which the
// caller ends, and builds the window's sources (updateSources) under
// it.
func (r *EraRun) buildUpdates(fromT, toT float64, peers map[uint32]bool) (*obs.Span, []bgpstream.Source) {
	sp := r.Cfg.Trace.Child("updates")
	sp.SetAttr("from_t", fromT)
	sp.SetAttr("to_t", toT)
	bsp := sp.Child("collector.build_updates")
	sources := r.updateSources(fromT, toT, peers)
	totalBytes := 0
	for _, src := range sources {
		totalBytes += len(src.Data)
	}
	bsp.SetAttr("archives", len(sources))
	bsp.SetAttr("bytes", totalBytes)
	bsp.End()
	return sp, sources
}

// updateWarnings builds the standard 4-hour update window's parse
// warnings — the abnormal-peer signal fed into sanitization, which
// counts them per non-zero peer ASN. Only Infra.WarningPeers can be
// blamed for one, so the window is built for them alone, and an era
// without such a peer builds nothing. The archives are small, so one
// sequential stream drains them for their warnings and no update
// record is kept. Correlation and replay (Updates, UpdateSources) keep
// the full window.
func (r *EraRun) updateWarnings() ([]bgpstream.Warning, error) {
	peers := r.Infra.WarningPeers()
	if len(peers) == 0 {
		return nil, nil
	}
	sp, sources := r.buildUpdates(OffsetBase, OffsetBase+UpdateHours, peers)
	defer sp.End()
	// The decode keeps Updates' span name, under which bench/spans.go
	// files it as decode time.
	dsp := sp.Child("metrics.collect_records")
	defer dsp.End()
	s := bgpstream.NewStream(r.updateFilter(), sources...)
	s.SetMetrics(r.Cfg.Metrics)
	if err := s.Drain(); err != nil {
		return nil, err
	}
	warnings := s.Warnings()
	dsp.SetAttr("sources", len(sources))
	dsp.SetAttr("warnings", len(warnings))
	return warnings, nil
}

// EraResult is the full per-era analysis (one column of Tables 1–3).
type EraResult struct {
	Era       topology.Era
	Stats     core.GeneralStats
	Report    *sanitize.Report
	Formation *metrics.FormationResult
	Stab8h    metrics.Stability
	Stab24h   metrics.Stability
	Stab1w    metrics.Stability
	Corr      *metrics.UpdateCorrelation
	Atoms     *core.AtomSet
}

// RunEra executes the complete per-era pipeline. The four snapshot
// offsets and the update window build on the worker pool, then the
// five analyses run concurrently; at Workers=1 the pipeline is the
// original sequential one, and the result is identical either way.
func RunEra(cfg Config, era topology.Era) (*EraResult, error) {
	sp := cfg.Trace.Child("longitudinal.run_era")
	sp.SetAttr("era", era.String())
	defer sp.End()
	cfg.Trace = sp // nest every stage under this era
	r := NewEraRun(cfg, era)
	offsets := []float64{
		OffsetBase,
		OffsetBase + Offset8h,
		OffsetBase + Offset24h,
		OffsetBase + Offset1Week,
	}
	snaps := make([]*core.AtomSet, len(offsets))
	var rep *sanitize.Report
	var records []metrics.UpdateRecord
	// Tasks 0–3 build the snapshots; task 4 synthesizes the update
	// window. Each writes a distinct slot, and ForEach reports the
	// lowest-index error, so failures surface exactly as they would
	// sequentially.
	err := parallel.ForEach(cfg.Workers, len(offsets)+1, func(i int) error {
		if i == len(offsets) {
			var err error
			records, _, err = r.Updates(OffsetBase, OffsetBase+UpdateHours)
			return err
		}
		s, rp, err := r.SnapshotAt(offsets[i])
		if err != nil {
			if i == 0 {
				return fmt.Errorf("longitudinal: base snapshot: %w", err)
			}
			return err
		}
		snaps[i] = s
		if i == 0 {
			rep = rp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := snaps[0]
	res := &EraResult{
		Era:    era,
		Stats:  base.Stats(),
		Report: rep,
		Atoms:  base,
	}
	// The analyses only read the snapshots; each fills its own field.
	parallel.ForEach(cfg.Workers, 5, func(i int) error {
		switch i {
		case 0:
			res.Formation = metrics.FormationDistances(base, metrics.DefaultFormationOptions(), sp)
		case 1:
			res.Stab8h = metrics.CompareStability(base, snaps[1], sp)
		case 2:
			res.Stab24h = metrics.CompareStability(base, snaps[2], sp)
		case 3:
			res.Stab1w = metrics.CompareStability(base, snaps[3], sp)
		case 4:
			res.Corr = metrics.CorrelateUpdates(base, records, maxK, sp)
		}
		return nil
	})
	sp.SetAttr("atoms", res.Stats.Atoms)
	sp.SetAttr("prefixes", res.Stats.Prefixes)
	cfg.Progress.Step("era_done", era.String(), int64(res.Stats.Prefixes))
	return res, nil
}

// TrendPoint is one era's condensed numbers for the trend figures.
type TrendPoint struct {
	Era topology.Era
	// FormationShare[d] is the share of atoms formed at distance d
	// (Fig 4/11 solid); FormationShareMulti excludes single-atom ASes
	// (dashed).
	FormationShare      []float64
	FormationShareMulti []float64
	CAM8h, MPM8h        float64
	CAM1w, MPM1w        float64
	FullFeeds           int
	FullFeedThreshold   int
	Stats               core.GeneralStats
}

// RunTrend runs the pipeline across eras (Figures 4, 5, 9, 11, 12, 13).
// Every era is four tasks on one worker pool: its abnormal-peer window
// and its base, +8h and +1w snapshots. Eras run largest first
// (trendOrder), so the longest one starts at once instead of leaving
// one CPU idle for its tail. An era's world is generated by whichever
// of its tasks runs first, and the task that finishes its last stage
// runs its analyses and releases it, so at most as many stages are in
// flight as the pool has workers. The points come back in the order of
// eras, identical at any worker count.
func RunTrend(cfg Config, eras []topology.Era) ([]TrendPoint, error) {
	root := cfg.Trace
	cfg.Progress.Begin("trend", len(eras))
	order := trendOrder(eras)
	jobs := make([]trendJob, len(eras))
	out := make([]TrendPoint, len(eras))
	err := parallel.ForEach(cfg.Workers, len(eras)*trendStages, func(i int) error {
		k := order[i/trendStages]
		j := &jobs[k]
		j.once.Do(func() {
			j.span = root.Child("longitudinal.trend_era")
			j.span.SetAttr("era", eras[k].String())
			ecfg := cfg
			ecfg.Trace = j.span
			j.run = NewEraRun(ecfg, eras[k])
			j.left.Store(int32(trendStages))
		})
		if stage := i % trendStages; stage == 0 {
			if _, err := j.run.warnings(); err != nil {
				return err
			}
		} else {
			atoms, rep, err := j.run.SnapshotAt(trendOffsets[stage-1])
			if err != nil {
				return err
			}
			j.snaps[stage-1] = atoms
			if stage == 1 {
				j.rep = rep
			}
		}
		// The atomic decrement orders every stage's writes before the
		// last stage's reads.
		if j.left.Add(-1) > 0 {
			return nil
		}
		out[k] = j.point()
		j.span.End()
		cfg.Progress.Step("era_done", eras[k].String(), int64(out[k].Stats.Prefixes))
		j.run, j.snaps, j.rep = nil, [len(trendOffsets)]*core.AtomSet{}, nil
		return nil
	})
	if err != nil {
		for k := range jobs {
			jobs[k].span.End()
		}
		return nil, err
	}
	cfg.Progress.End("trend_done")
	return out, nil
}

// trendStages is the number of RunTrend pool tasks per era: the
// abnormal-peer window, then one per trendOffsets snapshot.
const trendStages = 1 + len(trendOffsets)

// trendOffsets are the snapshots a trend point compares: base, +8h and
// +1w.
var trendOffsets = [...]float64{OffsetBase, OffsetBase + Offset8h, OffsetBase + Offset1Week}

// trendOrder returns the era indices in RunTrend's schedule: latest
// era first, since this generator's worlds grow with the year, and
// equal eras in list order. It depends on the era list alone.
func trendOrder(eras []topology.Era) []int {
	order := make([]int, len(eras))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(eras[b], eras[a]) })
	return order
}

// trendJob is one era's state while its RunTrend stages run.
type trendJob struct {
	once  sync.Once
	span  *obs.Span
	run   *EraRun
	snaps [len(trendOffsets)]*core.AtomSet
	rep   *sanitize.Report // the base snapshot's
	left  atomic.Int32     // stages not yet finished
}

// point runs the era's trend analyses over its finished snapshots.
func (j *trendJob) point() TrendPoint {
	base, s8, s1w := j.snaps[0], j.snaps[1], j.snaps[2]
	form := metrics.FormationDistances(base, metrics.DefaultFormationOptions(), j.span)
	st8 := metrics.CompareStability(base, s8, j.span)
	st1w := metrics.CompareStability(base, s1w, j.span)
	tp := TrendPoint{
		Era:               j.run.Era,
		CAM8h:             st8.CAM,
		MPM8h:             st8.MPM,
		CAM1w:             st1w.CAM,
		MPM1w:             st1w.MPM,
		FullFeeds:         j.rep.FullFeeds,
		FullFeedThreshold: j.rep.FullFeedThreshold,
		Stats:             base.Stats(),
	}
	tp.FormationShare = shares(form.AtomsAtDistance, form.TotalAtoms)
	multiTotal := 0
	for _, n := range form.AtomsAtDistanceMultiAtom {
		multiTotal += n
	}
	tp.FormationShareMulti = shares(form.AtomsAtDistanceMultiAtom, multiTotal)
	return tp
}

func shares(counts []int, total int) []float64 {
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, n := range counts {
		out[i] = float64(n) / float64(total)
	}
	return out
}

// SplitStudy is the §4.4.1 daily-snapshot analysis output.
type SplitStudy struct {
	Days []metrics.DayBreakdown
	CDF  metrics.ObserverCDF
	// Events holds each day's metrics.DetectSplits output, in day order
	// (the input of vptrust.Analyze).
	Events [][]metrics.SplitEvent
}

// RunSplits processes days+2 daily snapshots starting at the era's
// anchor and aggregates split events and their observers (Fig 6/7/16).
func RunSplits(cfg Config, era topology.Era, days int) (*SplitStudy, error) {
	sp := cfg.Trace.Child("longitudinal.run_splits")
	sp.SetAttr("era", era.String())
	sp.SetAttr("days", days)
	defer sp.End()
	cfg.Trace = sp
	r := NewEraRun(cfg, era)
	snaps, err := parallel.Map(cfg.Workers, days+2, func(d int) (*core.AtomSet, error) {
		s, _, err := r.SnapshotAt(OffsetBase + float64(d))
		return s, err
	})
	if err != nil {
		return nil, err
	}
	// Each day's detection reads a sliding window of three snapshots;
	// aggregation stays sequential so events keep day order.
	dayEvents, err := parallel.Map(cfg.Workers, days, func(d int) ([]metrics.SplitEvent, error) {
		return metrics.DetectSplits(snaps[d], snaps[d+1], snaps[d+2], sp), nil
	})
	if err != nil {
		return nil, err
	}
	study := &SplitStudy{Events: dayEvents}
	var all []metrics.SplitEvent
	for d, events := range dayEvents {
		study.Days = append(study.Days, metrics.BreakdownDay(d, events))
		all = append(all, events...)
	}
	study.CDF = metrics.BuildObserverCDF(all)
	sp.SetAttr("events", len(all))
	cfg.Progress.Step("splits_done", era.String(), int64(len(all)))
	return study, nil
}
