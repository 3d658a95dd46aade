package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/atomd"
	"repro/internal/longitudinal"
	"repro/internal/obs"
	"repro/internal/topology"
)

// pipeline is one batch workload: a longitudinal entry point over a
// fixed set of eras.
type pipeline struct {
	eras  []topology.Era
	scale float64
	fast  bool
	// call runs the entry point and returns a digest of its output.
	call func(cfg longitudinal.Config, eras []topology.Era) (digest string, err error)
}

func (p pipeline) config(seed uint64, workers int, trace *obs.Span) longitudinal.Config {
	cfg := longitudinal.DefaultConfig(seed)
	cfg.Scale = p.scale
	cfg.FastPath = p.fast
	cfg.Workers = workers
	cfg.Trace = trace
	return cfg
}

// trendPipeline is the paper's multi-era sweep: RunTrend on the fast
// path.
func trendPipeline(eras []topology.Era, scale float64) pipeline {
	return pipeline{eras: eras, scale: scale, fast: true, call: callTrend}
}

// wirePipeline is one full RunEra with every RIB going through MRT
// encode, bgpstream decode and sanitize.Clean.
func wirePipeline(scale float64) pipeline {
	return pipeline{eras: []topology.Era{daemonEra}, scale: scale, fast: false, call: callEra}
}

func callTrend(cfg longitudinal.Config, eras []topology.Era) (string, error) {
	points, err := longitudinal.RunTrend(cfg, eras)
	if err != nil {
		return "", err
	}
	return digest(points)
}

func callEra(cfg longitudinal.Config, eras []topology.Era) (string, error) {
	res, err := longitudinal.RunEra(cfg, eras[0])
	if err != nil {
		return "", err
	}
	// Path IDs depend on interning order, so the atoms go in through
	// their canonical rendering and everything else as plain values.
	return digest(struct {
		Era       string
		Stats     any
		Report    any
		Formation any
		Stab      [3]any
		Corr      any
		Atoms     []byte
	}{res.Era.String(), res.Stats, res.Report, res.Formation,
		[3]any{res.Stab8h, res.Stab24h, res.Stab1w}, res.Corr, atomd.RenderAtoms(res.Atoms)})
}

// digest is the hex SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return hexDigest(b), nil
}

// timedCall runs the pipeline once, starting from a collected heap
// with its pages returned to the kernel so one call's garbage is not
// charged to the next, and reports the resident-set peak of the call.
func (p pipeline) timedCall(cfg longitudinal.Config) (wall time.Duration, digest string, rssMB float64, err error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return 0, "", 0, err
	}
	start := time.Now()
	digest, err = p.call(cfg, p.eras)
	wall = time.Since(start)
	if err != nil {
		return wall, digest, 0, err
	}
	rssMB, err = peakRSSMB("self")
	return wall, digest, rssMB, err
}

// setup times generating the eras' worlds (topology and collector
// infrastructure), the set-up each pipeline call starts with. One
// generation takes milliseconds, so it samples for setupFor.
func (p pipeline) setup(seed uint64) []float64 {
	cfg := p.config(seed, 0, nil)
	var out []float64
	for start := time.Now(); len(out) == 0 || time.Since(start) < setupFor; {
		t := time.Now()
		for _, era := range p.eras {
			longitudinal.NewEraRun(cfg, era)
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out
}

// setupFor is the minimum time spent sampling batch set-up.
const setupFor = 300 * time.Millisecond

// runBatch measures a batch workload end to end: world set-up, one
// sequential warm-up call whose digest is the reference, then timed
// calls at workers = nproc until the run's time is spent, each checked
// against the reference.
func runBatch(r *run, p pipeline) {
	seed := r.worldSeed(p.scale, p.eras)
	setup := p.setup(seed)
	r.sample("setup_s", setup...)

	_, ref, _, err := p.timedCall(p.config(seed, 1, nil))
	r.ops.add(err)
	if err != nil {
		r.fail("warm-up call: %v", err)
		return
	}
	r.digest("workers=1", ref)

	nproc := runtime.NumCPU()
	var walls, rss []float64
	deadline := time.Now().Add(r.env.seconds)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		wall, d, mb, err := p.timedCall(p.config(seed, nproc, nil))
		if err == nil && d != ref {
			err = fmt.Errorf("rep %d at workers=%d: digest %s, want %s", i, nproc, d, ref)
		}
		r.ops.add(err)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		walls = append(walls, wall.Seconds())
		rss = append(rss, mb)
	}
	if len(walls) == 0 {
		return
	}
	r.digest(fmt.Sprintf("workers=%d", nproc), ref)
	r.sample("latency_p50_ms", scale(walls, 1000)...)
	r.set("throughput_per_s", float64(len(p.eras))/median(walls), len(walls))
	r.sample("peak_rss_mb", rss...)
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// traceBatch is the batch half of every traced pass: a warm-up at
// workers = nproc, then at workers=1 an untraced, a traced and another
// untraced call, then a timed call at workers = nproc. Self time per
// layer comes from the traced call's span tree. The untraced calls
// bracket the traced one, so their mean cancels a drift of the host
// through the three calls, and give the scaling and the tracing
// overhead.
func traceBatch(r *run, p pipeline) {
	seed := r.worldSeed(p.scale, p.eras)
	nproc := runtime.NumCPU()
	// The calls in order; the first only warms up.
	const untraced1, tracedCall, untraced2, parallelCall = 1, 2, 3, 4
	workers := []int{nproc, 1, 1, 1, nproc}
	walls := make([]time.Duration, len(workers))
	var root *obs.Span
	ref := ""
	for i, w := range workers {
		var trace *obs.Span
		if i == tracedCall {
			trace = obs.Root("bench")
			root = trace
		}
		wall, d, _, err := p.timedCall(p.config(seed, w, trace))
		trace.End()
		if err == nil && ref != "" && d != ref {
			err = fmt.Errorf("call %d at workers=%d: digest %s, want %s", i, w, d, ref)
		}
		r.ops.add(err)
		if err != nil {
			r.fail("traced pass: %v", err)
			return
		}
		ref = d
		walls[i] = wall
	}
	r.digest("traced", ref)
	rep := root.Report()
	layers := layerTimes(rep)
	traced := time.Duration(msToNs(rep.DurationMS))
	for _, name := range batchLayers {
		r.set(name, layers[name].Seconds(), 1)
	}
	if share := layers[unattributedLayer].Seconds() / traced.Seconds(); share > 0.05 {
		r.fail("unattributed time is %.1f%% of the traced call, over the 5%% limit", 100*share)
	}
	r.set("sanitize.alloc_mb", float64(allocBytes(rep, "sanitize."))/(1<<20), 1)
	r.set("collector.alloc_mb", float64(allocBytes(rep, "collector."))/(1<<20), 1)
	sequential := (walls[untraced1] + walls[untraced2]).Seconds() / 2
	r.set("parallel.run_workers1_s", sequential, 2)
	r.set("parallel.speedup", sequential/walls[parallelCall].Seconds(), 2)
	r.set("obs.trace_overhead", walls[tracedCall].Seconds()/sequential-1, 2)
}

// batchLayers lists the span-derived layer metrics, in report order.
var batchLayers = []string{
	"topology.generate_s",
	"routing.overlay_s",
	"collector.build_snapshot_s",
	"collector.build_updates_s",
	"decode.ingest_s",
	"sanitize.filters_s",
	"sanitize.intern_s",
	"sanitize.admission_s",
	"sanitize.assemble_s",
	"core.compute_atoms_s",
	"metrics.analyses_s",
	unattributedLayer,
}
