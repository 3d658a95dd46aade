// Command bench is the repository's end-to-end benchmark: four
// workloads over the batch reproduction pipeline and the atomd daemon,
// each printing its end-to-end metrics (or, with -trace 1, its
// per-layer metrics) and checking its outputs against a reference.
// bench/run.sh builds it and cmd/atomd from source and runs it:
//
//	bash bench/run.sh -workload trend -seed 7 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any correctness check fails. See README.md for the
// workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/longitudinal"
	"repro/internal/topology"
)

// sizing fixes the inputs each workload generates.
type sizing struct {
	trendEras   []topology.Era
	batchScale  float64 // topology scale of trend and wire
	daemonScale float64 // topology scale of the daemon world
	daemonHours float64 // hours of updates the daemon world streams
}

// fullSize is what the benchmark measures.
var fullSize = sizing{
	trendEras: []topology.Era{
		topology.EraOf(2004, 1), topology.EraOf(2008, 1), topology.EraOf(2012, 1),
		topology.EraOf(2016, 1), topology.EraOf(2020, 1), topology.EraOf(2024, 1),
	},
	batchScale:  0.004,
	daemonScale: 0.004,
	daemonHours: 12,
}

// smokeSize runs every code path on the smallest inputs that still
// exercise it; TestBenchSmoke uses it.
var smokeSize = sizing{
	trendEras:   []topology.Era{topology.EraOf(2024, 1)},
	batchScale:  0.001,
	daemonScale: 0.001,
	daemonHours: 2,
}

// minReps is how many timed reps a run makes even when its time is
// spent: the fewest a median means anything over.
const minReps = 3

// env is one invocation's settings.
type env struct {
	seed    uint64
	seconds time.Duration
	atomd   string // built cmd/atomd binary
	dir     string // scratch directory for RIB files, removed at exit
	size    sizing
	log     io.Writer // progress lines
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: "+format+"\n", args...)
}

// workload is one named input set and what it measures.
type workload struct {
	name string
	// e2e measures the end-to-end metrics; trace the per-layer ones.
	e2e, trace func(*run)
}

var workloads = []workload{
	{"trend", runTrend, traceTrend},
	{"wire", runWire, traceWire},
	{"ingest", runIngest, traceDaemonWorld},
	{"serve", runServe, traceDaemonWorld},
}

func runTrend(r *run) { runBatch(r, trendPipeline(r.env.size.trendEras, r.env.size.batchScale)) }
func runWire(r *run)  { runBatch(r, wirePipeline(r.env.size.batchScale)) }

func traceTrend(r *run) {
	tracePass(r, trendPipeline(r.env.size.trendEras, r.env.size.batchScale), 24*longitudinal.UpdateHours)
}

func traceWire(r *run) {
	tracePass(r, wirePipeline(r.env.size.batchScale), 24*longitudinal.UpdateHours)
}

// traceDaemonWorld is the traced pass of both daemon workloads: the
// batch pipeline over the daemon's era at the daemon's scale, and the
// daemon's layers over the update bytes the daemon ingests.
func traceDaemonWorld(r *run) {
	tracePass(r, wirePipeline(r.env.size.daemonScale), r.env.size.daemonHours)
}

// tracePass is every workload's traced pass: the batch pipeline's spans
// (traceBatch), then the daemon's layers replayed over the given hours
// of the 2024Q1 world at the pipeline's scale, so every workload reports
// every per-layer metric.
func tracePass(r *run, p pipeline, hours float64) {
	traceBatch(r, p)
	w := buildWorld(r.worldSeed(p.scale, []topology.Era{daemonEra}), p.scale, hours)
	l, err := replayLayers(w)
	r.ops.add(err)
	if err != nil {
		r.fail("%v", err)
		return
	}
	l.report(r)
}

// metricDef is one metric of the catalog BENCHMARK.json mirrors.
type metricDef struct {
	unit  string
	layer bool // reported by the traced pass
}

var catalog = map[string]metricDef{
	"setup_s":          {"s", false},
	"latency_p50_ms":   {"ms", false},
	"throughput_per_s": {"1/s", false},
	"peak_rss_mb":      {"MB", false},

	"topology.generate_s":         {"s", true},
	"routing.overlay_s":           {"s", true},
	"collector.build_snapshot_s":  {"s", true},
	"collector.build_updates_s":   {"s", true},
	"decode.ingest_s":             {"s", true},
	"sanitize.filters_s":          {"s", true},
	"sanitize.intern_s":           {"s", true},
	"sanitize.admission_s":        {"s", true},
	"sanitize.assemble_s":         {"s", true},
	"core.compute_atoms_s":        {"s", true},
	"metrics.analyses_s":          {"s", true},
	"longitudinal.unattributed_s": {"s", true},
	"sanitize.alloc_mb":           {"MB", true},
	"collector.alloc_mb":          {"MB", true},
	"parallel.run_workers1_s":     {"s", true},
	"parallel.speedup":            {"ratio", true},
	"obs.trace_overhead":          {"ratio", true},

	"atomd.frame_s":         {"s", true},
	"bgpstream.decode_s":    {"s", true},
	"replay.map_s":          {"s", true},
	"core.apply_s":          {"s", true},
	"core.publish_s":        {"s", true},
	"core.publish_alloc_mb": {"MB", true},
	"bgpstream.elems":       {"count", true},
	"replay.skip_ratio":     {"ratio", true},
	"core.noop_ratio":       {"ratio", true},
	"core.noop_batch_ratio": {"ratio", true},
	"core.batches":          {"count", true},
}

// run collects one workload invocation's measurements and verdicts.
type run struct {
	env      *env
	ops      ops
	failures []string
	metrics  map[string]float64
	samples  map[string]int
	notes    map[string]float64 // diagnostics: printed and written, not gated
	digests  map[string]string
}

func newRun(e *env) *run {
	return &run{env: e, metrics: map[string]float64{}, samples: map[string]int{},
		notes: map[string]float64{}, digests: map[string]string{}}
}

// set records a metric from n samples.
func (r *run) set(name string, v float64, n int) {
	if _, ok := catalog[name]; !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.metrics[name] = v
	r.samples[name] = n
}

// sample records the median of xs, and their spread as a note.
func (r *run) sample(name string, xs ...float64) {
	if len(xs) == 0 {
		return
	}
	r.set(name, median(xs), len(xs))
	if len(xs) > 1 {
		r.note(name+".rep_spread", spread(xs))
	}
}

func (r *run) note(name string, v float64) { r.notes[name] = v }

// fail records a failed correctness check.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	r.env.logf("FAIL: %s", msg)
}

func (r *run) digest(label, d string) { r.digests[label] = d }

// worldSeed resolves the run's seed to a world of the reference size
// (sizedSeed) and notes which.
func (r *run) worldSeed(scale float64, eras []topology.Era) uint64 {
	s := sizedSeed(r.env.seed, scale, eras)
	r.note("world_seed", float64(s))
	return s
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the final line: every metric of the requested kind,
// with a check that each was measured and is a finite number.
func (r *run) result(layer bool) result {
	res := result{Attempted: r.ops.attempted, Failed: r.ops.failed, Metrics: map[string]measure{}}
	for name, def := range catalog {
		if def.layer != layer {
			continue
		}
		v, ok := r.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", name)
			continue
		}
		res.Metrics[name] = measure{v, def.unit}
	}
	if res.Attempted == 0 {
		r.fail("no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = len(r.failures) == 0
	return res
}

// report prints the human-readable lines of a run: every metric with
// its unit and sample count, the notes, the digests and the failures.
func (r *run) report(w io.Writer, name string, layer bool) {
	var names []string
	for n, def := range catalog {
		if def.layer == layer {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if v, ok := r.metrics[n]; ok {
			fmt.Fprintf(w, "%s %-30s %14.6g %-6s n=%d\n", name, n, v, catalog[n].unit, r.samples[n])
		}
	}
	for _, n := range sortedKeys(r.notes) {
		fmt.Fprintf(w, "%s note %-25s %14.6g\n", name, n, r.notes[n])
	}
	for _, n := range sortedKeys(r.digests) {
		fmt.Fprintf(w, "%s digest %-23s %s\n", name, n, r.digests[n])
	}
	fmt.Fprintf(w, "%s ops attempted=%d failed=%d error_rate=%g\n", name, r.ops.attempted, r.ops.failed, r.ops.errorRate())
	for _, f := range r.failures {
		fmt.Fprintf(w, "%s FAIL %s\n", name, f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runWorkload runs one workload in a fresh scratch directory.
func runWorkload(e env, w workload, layer bool) (*run, result, error) {
	dir, err := os.MkdirTemp(e.dir, w.name+"-")
	if err != nil {
		return nil, result{}, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	r := newRun(&e)
	start := time.Now()
	steal0, total0 := cpuStealTicks()
	if layer {
		w.trace(r)
	} else {
		w.e2e(r)
	}
	r.note("invocation_s", time.Since(start).Seconds())
	if steal1, total1 := cpuStealTicks(); total1 > total0 {
		r.note("host.steal_share", float64(steal1-steal0)/float64(total1-total0))
	}
	return r, r.result(layer), nil
}

func main() {
	name := flag.String("workload", "all", "workload to run: trend, wire, ingest, serve, or all")
	seed := flag.Uint64("seed", 7, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 12, "seconds each workload measures for")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	bin := flag.String("atomd", "", "path to a built cmd/atomd binary (bench/run.sh builds one)")
	out := flag.String("out", ".bench_build", "directory for JSON results and scratch files")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *bin, *out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, trace int, bin, out string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("-atomd: %v (run through bench/run.sh, which builds it)", err)
	}
	var selected []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	e := env{seed: seed, seconds: time.Duration(seconds) * time.Second, atomd: bin,
		dir: out, size: fullSize, log: os.Stderr}
	fmt.Printf("host %s, %d CPUs, seed %d, %ds per workload\n", hostModel(), runtime.NumCPU(), seed, seconds)
	layer := trace == 1
	total := result{Correct: true, Metrics: map[string]measure{}}
	for _, w := range selected {
		r, res, err := runWorkload(e, w, layer)
		if err != nil {
			return err
		}
		r.report(os.Stdout, w.name, layer)
		if err := writeResult(out, w.name, seed, trace, r, res); err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !total.Correct {
		return errors.New("a correctness check failed")
	}
	return nil
}

// writeResult stores a workload's full result — metrics, sample counts,
// notes and digests — as JSON under out/results.
func writeResult(out, name string, seed uint64, trace int, r *run, res result) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Trace    int                `json:"trace"`
		Result   result             `json:"result"`
		Samples  map[string]int     `json:"samples"`
		Notes    map[string]float64 `json:"notes"`
		Digests  map[string]string  `json:"digests"`
		Failures []string           `json:"failures"`
	}{name, seed, trace, res, r.samples, r.notes, r.digests, r.failures}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuStealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat: steal is time the hypervisor ran something else while a
// virtual CPU of this machine wanted to run. A run with a high steal
// share measured the neighbours as much as the program.
func cpuStealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostModel is the CPU model name from /proc/cpuinfo.
func hostModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown CPU"
}
