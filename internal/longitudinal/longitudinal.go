// Package longitudinal drives the paper's per-quarter pipeline over the
// simulated Internet: generate the era's topology, build the collector
// infrastructure, synthesize RIB snapshots at the paper's offsets
// (the 15th 8:00, 15th 16:00, 16th 8:00, 22nd 8:00), sanitize, compute
// atoms, and run the four analyses — plus the daily-snapshot split
// window of §4.4.1 and multi-era trend series (Figures 4, 5, 9, 11,
// 12, 13).
package longitudinal

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/replay"
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
	// Churn rate curves (events/day at paper scale, era-interpolated).
	UnitEventRate      topology.Curve
	VPEventRate        topology.Curve
	PrefixMobileShare  topology.Curve
	PrefixBaseMoveRate topology.Curve
	FlapRate           topology.Curve
	TransitFlipShare   float64
	// VPShiftShare is the per-event share of prefixes a VP re-routes.
	VPShiftShare float64
	// FullMessageProb is the atom-level update packing probability.
	FullMessageProb topology.Curve
	// RefreshRate is the per-signature attribute-refresh rate.
	RefreshRate topology.Curve
	// MaxK bounds the update-correlation size axis.
	MaxK int
	// Workers bounds the worker pools used throughout the pipeline:
	// eras within RunTrend, the four snapshot offsets within RunEra,
	// daily snapshots within RunSplits, the per-feed and row-range
	// stages inside sanitization, and the origin fan-out of atom
	// grouping. 0 = one worker per CPU, 1 = fully sequential. Every
	// output is byte-identical at any value.
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
		Seed:               seed,
		Scale:              0.02,
		Family:             4,
		Artifacts:          true,
		FastPath:           true,
		UnitEventRate:      topology.Curve{V2002: 0.05, V2004: 0.05, V2024: 0.30},
		VPEventRate:        topology.Curve{V2002: 0.10, V2004: 0.10, V2024: 0.30},
		PrefixMobileShare:  topology.Curve{V2002: 0.008, V2004: 0.010, V2024: 0.130},
		PrefixBaseMoveRate: topology.Curve{V2002: 0.003, V2004: 0.004, V2024: 0.006},
		FlapRate:           topology.Curve{V2002: 0.05, V2004: 0.05, V2024: 0.15},
		TransitFlipShare:   0.4,
		VPShiftShare:       0.015,
		FullMessageProb:    topology.Curve{V2002: 0.85, V2004: 0.84, V2024: 0.80},
		RefreshRate:        topology.Curve{V2002: 2.0, V2004: 2.0, V2024: 3.0},
		MaxK:               7,
	}
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

	vps []uint32
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
	if cfg.MaxK == 0 {
		cfg.MaxK = 7
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
	model := routing.ChurnModel{
		Seed:               cfg.Seed + 2,
		UnitEventRate:      cfg.UnitEventRate.At(era),
		VPEventRate:        cfg.VPEventRate.At(era),
		PrefixMobileShare:  cfg.PrefixMobileShare.At(era),
		PrefixBaseMoveRate: cfg.PrefixBaseMoveRate.At(era),
		TransitFlipShare:   cfg.TransitFlipShare,
		VPShiftShare:       cfg.VPShiftShare,
		RefreshRate:        cfg.RefreshRate.At(era),
	}
	run := &EraRun{Cfg: cfg, Era: era, Graph: g, Infra: in, Model: model, vps: in.FullFeedASNs(),
		intern: aspath.NewTable()}
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
	if opts.Workers == 0 {
		opts.Workers = r.Cfg.Workers
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
	warnings, err := r.warnings()
	if err != nil {
		return nil, nil, err
	}
	opts := r.sanitizeOptions()
	opts.Span = sp
	opts.Metrics = r.Cfg.Metrics
	var snap *core.Snapshot
	var rep *sanitize.Report
	if r.Cfg.FastPath {
		bsp := sp.Child("collector.build_feeds")
		feeds := collector.BuildFeeds(r.Graph, r.Infra, ov, ts)
		bsp.SetAttr("feeds", len(feeds))
		bsp.End()
		snap, rep, err = sanitize.CleanFeeds(feeds, warnings, opts)
	} else {
		bsp := sp.Child("collector.build_ribs")
		ribs := collector.BuildRIBs(r.Graph, r.Infra, ov, ts)
		sources, totalBytes := sortedSources(ribs.Archives)
		bsp.SetAttr("archives", len(sources))
		bsp.SetAttr("bytes", totalBytes)
		bsp.End()
		snap, rep, err = sanitize.Clean(sources, warnings, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	return core.ComputeAtoms(snap, sp, r.Cfg.Workers), rep, nil
}

// sortedSources wraps archives as byte-backed sources in sorted name
// order (archive order feeds the decode pipeline, so the run is
// byte-stable across processes) and totals their bytes.
func sortedSources(archives map[string][]byte) ([]bgpstream.Source, int) {
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	sort.Strings(names)
	sources := make([]bgpstream.Source, 0, len(names))
	total := 0
	for _, name := range names {
		sources = append(sources, bgpstream.BytesSource(name, archives[name], bgp.Options{}))
		total += len(archives[name])
	}
	return sources, total
}

// UpdateSources synthesizes the update window's archives and returns
// them as byte-backed sources in sorted name order — the deterministic
// element stream behind Updates, exported so churn replay (replay.Run,
// RunChurnReplay, the churn benchmark) can drive an AtomIndex with the
// very same messages the correlation analysis consumes.
func (r *EraRun) UpdateSources(fromT, toT float64) []bgpstream.Source {
	sources, _ := r.updateSources(fromT, toT, nil)
	return sources
}

// updateSources is UpdateSources scoped to peers (nil = every peer; see
// collector.UpdateConfig.Peers), with the archives' total bytes.
func (r *EraRun) updateSources(fromT, toT float64, peers map[uint32]bool) ([]bgpstream.Source, int) {
	cfg := collector.UpdateConfig{
		Model:           r.Model,
		FromT:           fromT,
		ToT:             toT,
		BaseTime:        r.timestamp(fromT),
		FullMessageProb: r.Cfg.FullMessageProb.At(r.Era),
		FlapRate:        r.Cfg.FlapRate.At(r.Era),
		Peers:           peers,
	}
	return sortedSources(collector.BuildUpdates(r.Graph, r.Infra, cfg))
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
	return r.updates(fromT, toT, nil)
}

// updates is Updates scoped to peers (nil = every peer).
func (r *EraRun) updates(fromT, toT float64, peers map[uint32]bool) ([]metrics.UpdateRecord, []bgpstream.Warning, error) {
	sp := r.Cfg.Trace.Child("updates")
	sp.SetAttr("from_t", fromT)
	sp.SetAttr("to_t", toT)
	defer sp.End()
	bsp := sp.Child("collector.build_updates")
	sources, totalBytes := r.updateSources(fromT, toT, peers)
	bsp.SetAttr("archives", len(sources))
	bsp.SetAttr("bytes", totalBytes)
	bsp.End()
	return metrics.CollectRecordsObs(sources, r.updateFilter(), r.Cfg.Workers, r.Cfg.Metrics, sp)
}

// RunChurnReplay builds the era's base snapshot, wraps it in an
// AtomIndex, and replays the update window through it delta by delta —
// the incremental counterpart of recomputing the snapshot at the
// window's end. It returns the maintained index (Materialize reads the
// final partition) alongside the replay accounting. The replayed
// stream is the deterministic serve order bgpstream guarantees, so the
// result is byte-identical at any worker count.
func (r *EraRun) RunChurnReplay(fromT, toT float64) (*core.AtomIndex, replay.Stats, error) {
	atoms, _, err := r.SnapshotAt(fromT)
	if err != nil {
		return nil, replay.Stats{}, err
	}
	ix := core.NewAtomIndex(atoms.Snap)
	st, err := replay.Run(ix, r.UpdateSources(fromT, toT), replay.Options{
		Workers:  r.Cfg.Workers,
		Filter:   r.updateFilter(),
		Metrics:  r.Cfg.Metrics,
		Span:     r.Cfg.Trace,
		Progress: r.Cfg.Progress,
	})
	return ix, st, err
}

// updateWarnings builds the standard 4-hour update window's parse
// warnings — the abnormal-peer signal fed into sanitization, which
// counts them per non-zero peer ASN. Only Infra.WarningPeers can be
// blamed for one, so the window is scoped to them, and an era without
// such a peer builds nothing. Correlation and replay (Updates,
// UpdateSources) keep the full window.
func (r *EraRun) updateWarnings() ([]bgpstream.Warning, error) {
	peers := r.Infra.WarningPeers()
	if len(peers) == 0 {
		return nil, nil
	}
	_, warnings, err := r.updates(OffsetBase, OffsetBase+UpdateHours, peers)
	return warnings, err
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
			res.Formation = metrics.FormationDistancesSpan(base, metrics.DefaultFormationOptions(), sp)
		case 1:
			res.Stab8h = metrics.CompareStabilitySpan(base, snaps[1], sp)
		case 2:
			res.Stab24h = metrics.CompareStabilitySpan(base, snaps[2], sp)
		case 3:
			res.Stab1w = metrics.CompareStabilitySpan(base, snaps[3], sp)
		case 4:
			res.Corr = metrics.CorrelateUpdatesSpan(base, records, cfg.MaxK, sp)
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
// Eras are independent worlds, so they fan out across the worker pool;
// Map returns the points in era order regardless of completion order.
func RunTrend(cfg Config, eras []topology.Era) ([]TrendPoint, error) {
	root := cfg.Trace
	cfg.Progress.Begin("trend", len(eras))
	out, err := parallel.Map(cfg.Workers, len(eras), func(i int) (TrendPoint, error) {
		tp, err := trendPoint(cfg, root, eras[i])
		if err == nil {
			cfg.Progress.Step("era_done", eras[i].String(), int64(tp.Stats.Prefixes))
		}
		return tp, err
	})
	if err != nil {
		return nil, err
	}
	cfg.Progress.End("trend_done")
	return out, nil
}

// trendPoint computes one era's trend numbers — the per-worker unit of
// RunTrend.
func trendPoint(cfg Config, root *obs.Span, era topology.Era) (TrendPoint, error) {
	sp := root.Child("longitudinal.trend_era")
	sp.SetAttr("era", era.String())
	defer sp.End()
	ecfg := cfg
	ecfg.Trace = sp
	r := NewEraRun(ecfg, era)
	base, rep, err := r.SnapshotAt(OffsetBase)
	if err != nil {
		return TrendPoint{}, err
	}
	s8, _, err := r.SnapshotAt(OffsetBase + Offset8h)
	if err != nil {
		return TrendPoint{}, err
	}
	s1w, _, err := r.SnapshotAt(OffsetBase + Offset1Week)
	if err != nil {
		return TrendPoint{}, err
	}
	form := metrics.FormationDistancesSpan(base, metrics.DefaultFormationOptions(), sp)
	st8 := metrics.CompareStabilitySpan(base, s8, sp)
	st1w := metrics.CompareStabilitySpan(base, s1w, sp)
	tp := TrendPoint{
		Era:               era,
		CAM8h:             st8.CAM,
		MPM8h:             st8.MPM,
		CAM1w:             st1w.CAM,
		MPM1w:             st1w.MPM,
		FullFeeds:         rep.FullFeeds,
		FullFeedThreshold: rep.FullFeedThreshold,
		Stats:             base.Stats(),
	}
	tp.FormationShare = shares(form.AtomsAtDistance, form.TotalAtoms)
	multiTotal := 0
	for _, n := range form.AtomsAtDistanceMultiAtom {
		multiTotal += n
	}
	tp.FormationShareMulti = shares(form.AtomsAtDistanceMultiAtom, multiTotal)
	return tp, nil
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
		return metrics.DetectSplitsSpan(snaps[d], snaps[d+1], snaps[d+2], sp), nil
	})
	if err != nil {
		return nil, err
	}
	study := &SplitStudy{}
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
