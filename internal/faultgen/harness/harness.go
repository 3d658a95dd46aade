// Package harness is the end-to-end differential fault harness: for
// every fault class it runs the full MRT→atoms pipeline twice — once
// over a clean synthetic world, once over the same world with seeded
// faultgen damage — and classifies the outcome per class:
//
//   - absorbed: the damaged run produced byte-for-byte the same
//     sanitized snapshot (same VPs, prefixes, and per-cell AS paths) as
//     the clean run. The pipeline shrugged the damage off.
//   - contained: the runs diverged, but every divergence is explained
//     by the injected faults' ground-truth coverage (faultgen.Fault)
//     plus the pipeline's own removal accounting (quarantine, peer
//     removals, full-feed threshold shifts), AND the damaged run was
//     loud about it — at least one warning, resync, quarantine,
//     removal, or error. Silent divergence is never contained.
//
// Anything else is a Problem, and the harness's report lists it. An
// empty Problems list is the invariant the fault-injection tests
// assert: damage is either absorbed or contained, never silent.
//
// The harness is deterministic end to end: the same Config produces a
// byte-identical Result.Marshal at any worker count.
package harness

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/bgp"
	"repro/internal/bgpstream"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/faultgen"
	"repro/internal/obs"
	"repro/internal/prefixset"
	"repro/internal/routing"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// Config parameterizes one harness run.
type Config struct {
	// Seed drives fault planning (faultgen.Config.Seed).
	Seed uint64
	// TopoSeed / Scale / Year / Quarter shape the synthetic world.
	TopoSeed uint64
	Scale    float64
	Year     int
	Quarter  int
	// Collectors pins the collector count (0 = era default).
	Collectors int
	// Workers is the pipeline worker count; the Result is identical at
	// any value — that identity is itself part of what tests assert.
	Workers int
	// Classes to exercise (nil = all).
	Classes []faultgen.Class
	// FaultsPerArchive per class (0 = 1).
	FaultsPerArchive int
	// Degradation budget handed to the streams (zero values keep
	// bgpstream defaults).
	DegradationMinRecords   int
	DegradationMaxSkipRatio float64
}

// DefaultConfig returns a small but structurally complete world: a few
// collectors, enough full feeds to clear the visibility thresholds.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:       seed,
		TopoSeed:   31,
		Scale:      0.004,
		Year:       2012,
		Quarter:    1,
		Collectors: 3,
		Workers:    1,
	}
}

// World is the clean synthetic input, built once and shared by the
// clean baseline and every damaged run.
type World struct {
	Graph *topology.Graph
	Infra *collector.Infra
	// Ribs / Upds map collector name → clean archive bytes.
	Ribs, Upds map[string][]byte
	// Combined is the fault-planning namespace: "rib/<name>" and
	// "upd/<name>" keys over the same bytes.
	Combined map[string][]byte
}

// archiveKind splits a combined-namespace archive name.
func archiveKind(name string) (kind, coll string) {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// BuildWorld generates the clean world for cfg. The update streams are
// generated with zero flap rate and no collector artifacts so the
// clean baseline is pristine — every warning in a damaged run is
// attributable to injected damage.
func BuildWorld(cfg Config) *World {
	era := topology.EraOf(cfg.Year, cfg.Quarter)
	p := topology.DefaultParams(cfg.TopoSeed)
	p.Scale = cfg.Scale
	g := topology.Generate(p, era)
	in := collector.BuildInfra(g, collector.Config{Seed: 7, ForceCollectors: cfg.Collectors})
	snap := collector.BuildRIBs(g, in, nil, collector.EpochOf(era))
	upds := collector.BuildUpdates(g, in, collector.UpdateConfig{
		Model:           routing.ChurnModel{Seed: 9, UnitEventRate: 0.4, VPEventRate: 0.01, TransitFlipShare: 0.4},
		FromT:           0,
		ToT:             2.0 / 24.0,
		BaseTime:        collector.EpochOf(era),
		FullMessageProb: 0.8,
	})
	w := &World{Graph: g, Infra: in, Ribs: snap.Archives, Upds: upds,
		Combined: make(map[string][]byte, len(snap.Archives)+len(upds))}
	for name, data := range snap.Archives {
		w.Combined["rib/"+name] = data
	}
	for name, data := range upds {
		w.Combined["upd/"+name] = data
	}
	return w
}

// runOutcome is everything one pipeline run exposes to the verdict.
type runOutcome struct {
	Snap *core.Snapshot
	Rep  *sanitize.Report
	Err  error
	// Atoms from the snapshot (0 when Err).
	Atoms int
	// UpdWarnings / RibWarnings count stream decode warnings.
	UpdWarnings int
	RibWarnings int
	Resyncs     int
	// UpdQuarantined are update sources whose budget blew.
	UpdQuarantined []string
	Flaps          map[uint32]int
}

// signals counts the loud evidence this run left behind; a contained
// divergence requires at least one.
func (r *runOutcome) signals() int {
	n := r.UpdWarnings + r.RibWarnings + r.Resyncs + len(r.UpdQuarantined)
	if r.Rep != nil {
		n += r.Rep.QuarantinedFeeds + len(r.Rep.RemovedPeerASes)
	}
	if r.Err != nil {
		n++
	}
	return n
}

// sortedSources builds bgpstream sources in sorted-name order so the
// stream's warning order — and hence the report — is deterministic.
func sortedSources(archives map[string][]byte) []bgpstream.Source {
	names := make([]string, 0, len(archives))
	for name := range archives {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]bgpstream.Source, 0, len(names))
	for _, name := range names {
		out = append(out, bgpstream.BytesSource(name, archives[name], bgp.Options{}))
	}
	return out
}

// runPipeline drives the production path: update stream → warnings,
// session flaps, quarantine verdicts → sanitize.Clean over the RIB
// sources → atoms.
func runPipeline(cfg Config, ribs, upds map[string][]byte) *runOutcome {
	out := &runOutcome{}

	us := bgpstream.NewStream(nil, sortedSources(upds)...)
	us.SetDegradation(cfg.DegradationMinRecords, cfg.DegradationMaxSkipRatio)
	if _, err := us.All(); err != nil {
		out.Err = fmt.Errorf("update stream: %w", err)
		return out
	}
	warnings := us.Warnings()
	out.UpdWarnings = len(warnings)
	out.UpdQuarantined = us.Quarantined()
	out.Flaps = us.StateFlaps()
	for _, st := range us.SourceStats() {
		out.Resyncs += st.Resyncs
	}

	reg := obs.NewRegistry()
	opts := sanitize.Defaults()
	opts.Workers = cfg.Workers
	opts.Metrics = reg
	opts.SessionFlaps = out.Flaps
	opts.DegradationMinRecords = cfg.DegradationMinRecords
	opts.DegradationMaxSkipRatio = cfg.DegradationMaxSkipRatio
	if len(out.UpdQuarantined) > 0 {
		opts.QuarantinedCollectors = make(map[string]bool, len(out.UpdQuarantined))
		for _, name := range out.UpdQuarantined {
			opts.QuarantinedCollectors[name] = true
		}
	}
	snap, rep, err := sanitize.Clean(sortedSources(ribs), warnings, opts)
	out.Snap, out.Rep, out.Err = snap, rep, err
	m := reg.Snapshot()
	for key, v := range m.Counters {
		if strings.HasPrefix(key, "bgpstream.warnings") {
			out.RibWarnings += int(v)
		}
	}
	out.Resyncs += int(m.CounterValue("bgpstream.resyncs"))
	if err == nil {
		out.Atoms = len(core.ComputeAtoms(snap, nil, cfg.Workers).Atoms)
	}
	return out
}

// ClassOutcome is the verdict for one fault class.
type ClassOutcome struct {
	Class    faultgen.Class
	Verdict  string // "absorbed" or "contained"
	Schedule *faultgen.Schedule
	// Stats of the damaged run (zero when the run errored).
	VPs, Prefixes, Atoms int
	Signals              int
	Quarantined          int
	Removed              int
	Err                  string
	Problems             []string
}

// Result is one full harness run.
type Result struct {
	Seed                     uint64
	Scale                    float64
	Year, Quarter            int
	CleanVPs, CleanPrefixes  int
	CleanAtoms               int
	RibArchives, UpdArchives int
	Classes                  []ClassOutcome
}

// Problems flattens every per-class problem; empty means the invariant
// held for all classes.
func (r *Result) Problems() []string {
	var out []string
	for _, c := range r.Classes {
		for _, p := range c.Problems {
			out = append(out, fmt.Sprintf("%s: %s", c.Class, p))
		}
	}
	return out
}

// Marshal renders the result as canonical text. Byte-identical across
// worker counts and repeated runs — the determinism tests compare
// these bytes directly.
func (r *Result) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "faultgen harness v1\nseed 0x%016x\n", r.Seed)
	fmt.Fprintf(&b, "world era=%dQ%d scale=%g rib_archives=%d upd_archives=%d\n",
		r.Year, r.Quarter, r.Scale, r.RibArchives, r.UpdArchives)
	fmt.Fprintf(&b, "clean vps=%d prefixes=%d atoms=%d\n", r.CleanVPs, r.CleanPrefixes, r.CleanAtoms)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "class %s verdict=%s vps=%d prefixes=%d atoms=%d signals=%d quarantined=%d removed=%d",
			c.Class, c.Verdict, c.VPs, c.Prefixes, c.Atoms, c.Signals, c.Quarantined, c.Removed)
		if c.Err != "" {
			fmt.Fprintf(&b, " err=%q", c.Err)
		}
		b.WriteByte('\n')
		for _, line := range strings.Split(strings.TrimRight(string(c.Schedule.Marshal()), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		for _, p := range c.Problems {
			fmt.Fprintf(&b, "  PROBLEM %s\n", p)
		}
	}
	fmt.Fprintf(&b, "problems %d\n", len(r.Problems()))
	return []byte(b.String())
}

// Run executes the harness: clean baseline, then one damaged pipeline
// run per fault class, each judged against the baseline.
func Run(cfg Config) (*Result, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = faultgen.AllClasses()
	}
	w := BuildWorld(cfg)
	res := &Result{
		Seed: cfg.Seed, Scale: cfg.Scale, Year: cfg.Year, Quarter: cfg.Quarter,
		RibArchives: len(w.Ribs), UpdArchives: len(w.Upds),
	}

	clean := runPipeline(cfg, w.Ribs, w.Upds)
	if clean.Err != nil {
		return nil, fmt.Errorf("harness: clean baseline errored: %w", clean.Err)
	}
	if n := clean.signals(); n != 0 {
		return nil, fmt.Errorf("harness: clean baseline is not pristine (%d signals); every damaged-run signal must be attributable to injected damage", n)
	}
	res.CleanVPs = len(clean.Snap.VPs)
	res.CleanPrefixes = len(clean.Snap.Prefixes)
	res.CleanAtoms = clean.Atoms
	if res.CleanVPs == 0 || res.CleanPrefixes == 0 {
		return nil, fmt.Errorf("harness: degenerate clean world (%d VPs, %d prefixes) — enlarge Scale", res.CleanVPs, res.CleanPrefixes)
	}

	for _, class := range classes {
		sched, err := faultgen.Plan(faultgen.Config{
			Seed: cfg.Seed, Classes: []faultgen.Class{class},
			FaultsPerArchive: cfg.FaultsPerArchive,
		}, w.Combined)
		if err != nil {
			return nil, fmt.Errorf("harness: plan %s: %w", class, err)
		}
		damaged, err := faultgen.Apply(sched, w.Combined)
		if err != nil {
			return nil, fmt.Errorf("harness: apply %s: %w", class, err)
		}
		dribs := make(map[string][]byte, len(w.Ribs))
		dupds := make(map[string][]byte, len(w.Upds))
		for name, data := range damaged {
			kind, coll := archiveKind(name)
			switch kind {
			case "rib":
				dribs[coll] = data
			case "upd":
				dupds[coll] = data
			}
		}
		out := runPipeline(cfg, dribs, dupds)
		res.Classes = append(res.Classes, judge(class, sched, w, dribs, clean, out))
	}
	return res, nil
}

// archiveDamage is one RIB archive's ground-truth fault coverage.
type archiveDamage struct {
	faulted bool
	// all: a fault covered the PEER_INDEX_TABLE — every cell of this
	// archive's VPs is fair game.
	all bool
	// coverage: prefixes whose clean records a fault covered (may be
	// lost or altered); damagedCov: prefixes fault-created content
	// claims (may phantom-appear).
	coverage, damagedCov map[netip.Prefix]bool
	// suffix: framing broken from the fault onward (resync territory).
	suffix bool
}

// judge classifies one damaged run against the clean baseline.
func judge(class faultgen.Class, sched *faultgen.Schedule, w *World, dribs map[string][]byte, clean, damaged *runOutcome) ClassOutcome {
	oc := ClassOutcome{Class: class, Schedule: sched, Signals: damaged.signals()}
	if damaged.Rep != nil {
		oc.Quarantined = damaged.Rep.QuarantinedFeeds
		oc.Removed = len(damaged.Rep.RemovedPeerASes)
	}
	problem := func(format string, args ...any) {
		oc.Problems = append(oc.Problems, fmt.Sprintf(format, args...))
	}

	if damaged.Err != nil {
		oc.Err = damaged.Err.Error()
		// A loud refusal is containment's strongest form — but only the
		// designed refusal. Anything else is a pipeline bug.
		if errors.Is(damaged.Err, sanitize.ErrAllFeedsRemoved) {
			oc.Verdict = "contained"
		} else {
			oc.Verdict = "contained"
			problem("unexpected pipeline error: %v", damaged.Err)
		}
		return oc
	}

	oc.VPs = len(damaged.Snap.VPs)
	oc.Prefixes = len(damaged.Snap.Prefixes)
	oc.Atoms = damaged.Atoms

	if snapshotsEqual(clean.Snap, damaged.Snap) {
		oc.Verdict = "absorbed"
		return oc
	}
	oc.Verdict = "contained"

	// Divergence must be loud.
	if oc.Signals == 0 {
		problem("silent divergence: snapshots differ with zero warnings, resyncs, quarantines, or removals")
	}

	// Ground-truth coverage per faulted RIB archive. Update-archive
	// faults never touch cells directly; they act through warnings,
	// flap counts, and quarantine — all visible in the report.
	dmg := map[string]*archiveDamage{}
	for _, f := range sched.Faults {
		kind, coll := archiveKind(f.Archive)
		if kind != "rib" {
			continue
		}
		ad := dmg[coll]
		if ad == nil {
			ad = &archiveDamage{coverage: map[netip.Prefix]bool{}, damagedCov: map[netip.Prefix]bool{}}
			dmg[coll] = ad
		}
		ad.faulted = true
		if f.Class.CoversSuffix() {
			ad.suffix = true
		}
		pfxs, all := faultgen.CoveredPrefixes(f, w.Ribs[coll])
		if all {
			ad.all = true
		}
		for _, p := range pfxs {
			ad.coverage[prefixset.Canonical(p)] = true
		}
		dpfxs, dall := faultgen.DamagedPrefixes(f, dribs[coll])
		if dall {
			ad.all = true
		}
		for _, p := range dpfxs {
			ad.damagedCov[prefixset.Canonical(p)] = true
		}
	}

	// Pipeline-level accounting from the damaged report.
	quarantined := map[string]bool{}
	removed := damaged.Rep.RemovedPeerASes
	for _, name := range damaged.Rep.QuarantinedCollectors {
		quarantined[name] = true
	}
	fullFeed := func(rep *sanitize.Report) map[core.VP]bool {
		m := map[core.VP]bool{}
		for _, fs := range rep.Feeds {
			m[fs.VP] = fs.FullFeed
		}
		return m
	}
	cleanFull, dmgFull := fullFeed(clean.Rep), fullFeed(damaged.Rep)
	fullFeedSetChanged := func() bool {
		if len(cleanFull) != len(dmgFull) {
			return true
		}
		for vp, ff := range cleanFull {
			if dmgFull[vp] != ff {
				return true
			}
		}
		return false
	}()

	// VP accounting: every snapshot VP-set difference must trace to
	// quarantine, a recorded removal, a full-feed threshold shift, or a
	// fault on the VP's own archive.
	cleanVPs, dmgVPs := vpSet(clean.Snap), vpSet(damaged.Snap)
	vpSetChanged := false
	for vp := range cleanVPs {
		if dmgVPs[vp] {
			continue
		}
		vpSetChanged = true
		ad := dmg[vp.Collector]
		switch {
		case quarantined[vp.Collector]:
		case removed[vp.ASN] != "":
		case !dmgFull[vp]: // fell below the full-feed threshold, report says so
		case ad != nil && ad.faulted:
		default:
			problem("VP %s vanished with no quarantine, removal, threshold, or fault explanation", vp)
		}
	}
	for vp := range dmgVPs {
		if cleanVPs[vp] {
			continue
		}
		vpSetChanged = true
		ad := dmg[vp.Collector]
		switch {
		case ad != nil && ad.faulted: // damaged PIT can mint identities
		case !cleanFull[vp] && dmgFull[vp]: // threshold dropped, feed promoted
		default:
			problem("phantom VP %s appeared with no fault on its archive", vp)
		}
	}

	anyCoverage := func(p netip.Prefix) bool {
		for _, ad := range dmg {
			if ad.all || ad.coverage[p] || ad.damagedCov[p] {
				return true
			}
		}
		return false
	}

	// Prefix accounting.
	cleanPfx, dmgPfx := prefixIndex(clean.Snap), prefixIndex(damaged.Snap)
	cleanUniverse := map[netip.Prefix]bool{}
	for _, data := range w.Ribs {
		for _, p := range faultgen.ArchivePrefixes(data) {
			cleanUniverse[prefixset.Canonical(p)] = true
		}
	}
	for p := range cleanPfx {
		if _, ok := dmgPfx[p]; ok {
			continue
		}
		if !anyCoverage(p) && !vpSetChanged && !fullFeedSetChanged {
			problem("prefix %v lost without coverage or a VP-set change", p)
		}
	}
	for p := range dmgPfx {
		if _, ok := cleanPfx[p]; ok {
			continue
		}
		if anyCoverage(p) {
			continue
		}
		if cleanUniverse[p] && (vpSetChanged || fullFeedSetChanged) {
			continue
		}
		problem("phantom prefix %v admitted: absent from every clean archive and no VP-set change", p)
	}

	// Cell accounting over common (prefix, VP) pairs. Clean records
	// before a fault are byte-identical and first-wins deduplication
	// keeps their routes authoritative, so a changed cell must be
	// covered by the fault — or be resync garbage filling a previously
	// empty cell after a broken boundary.
	cleanVPi, dmgVPi := vpIndex(clean.Snap), vpIndex(damaged.Snap)
	for p, cpi := range cleanPfx {
		dpi, ok := dmgPfx[p]
		if !ok {
			continue
		}
		for vp, cvi := range cleanVPi {
			dvi, ok := dmgVPi[vp]
			if !ok {
				continue
			}
			cs := clean.Snap.Route(cpi, cvi)
			ds := damaged.Snap.Route(dpi, dvi)
			if seqEqual(cs, ds) {
				continue
			}
			ad := dmg[vp.Collector]
			switch {
			case ad == nil || !ad.faulted:
				problem("cell (%v, %s) changed but the VP's archive was never faulted", p, vp)
			case ad.all:
			case ad.coverage[p] || ad.damagedCov[p]:
			case ad.suffix && len(cs) == 0:
				// Post-boundary resync garbage claiming an empty cell.
			default:
				problem("cell (%v, %s) changed outside the fault's coverage", p, vp)
			}
		}
	}
	return oc
}

func vpSet(s *core.Snapshot) map[core.VP]bool {
	m := make(map[core.VP]bool, len(s.VPs))
	for _, vp := range s.VPs {
		m[vp] = true
	}
	return m
}

func prefixIndex(s *core.Snapshot) map[netip.Prefix]int {
	m := make(map[netip.Prefix]int, len(s.Prefixes))
	for i, p := range s.Prefixes {
		m[p] = i
	}
	return m
}

func vpIndex(s *core.Snapshot) map[core.VP]int {
	m := make(map[core.VP]int, len(s.VPs))
	for i, vp := range s.VPs {
		m[vp] = i
	}
	return m
}

func seqEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshotsEqual compares two snapshots by content: VP set, prefix
// set, and every cell's path sequence. Interned IDs are not compared —
// they depend on interning order, which may differ between runs.
func snapshotsEqual(a, b *core.Snapshot) bool {
	if len(a.VPs) != len(b.VPs) || len(a.Prefixes) != len(b.Prefixes) {
		return false
	}
	for i := range a.VPs {
		if a.VPs[i] != b.VPs[i] {
			return false
		}
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return false
		}
	}
	for p := range a.Prefixes {
		for v := range a.VPs {
			if !seqEqual(a.Route(p, v), b.Route(p, v)) {
				return false
			}
		}
	}
	return true
}
