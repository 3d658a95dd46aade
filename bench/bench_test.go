package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/longitudinal"
	"repro/internal/topology"
)

// buildAtomd builds cmd/atomd once per test binary.
func buildAtomd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "atomd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/atomd").CombinedOutput()
	if err != nil {
		t.Fatalf("build atomd: %v\n%s", err, out)
	}
	return bin
}

func smokeEnv(t *testing.T, bin string) env {
	return env{seed: 3, seconds: time.Second, atomd: bin, dir: t.TempDir(), size: smokeSize, log: io.Discard}
}

// TestBenchSmoke runs every workload once end to end and once traced,
// at the smoke size: every gate must pass and every metric be measured.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots atomd and runs every workload")
	}
	bin := buildAtomd(t)
	for _, w := range workloads {
		for _, layer := range []bool{false, true} {
			start := time.Now()
			r, res, err := runWorkload(smokeEnv(t, bin), w, layer)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s layer=%v: correct=%v failed=%d: %v", w.name, layer, res.Correct, res.Failed, r.failures)
			}
			for name, def := range catalog {
				if _, ok := res.Metrics[name]; def.layer == layer && !ok {
					t.Errorf("%s layer=%v: metric %s missing", w.name, layer, name)
				}
			}
			t.Logf("%s layer=%v: %d metrics, %d ops in %v", w.name, layer, len(res.Metrics), res.Attempted, time.Since(start))
		}
	}
}

// TestBatchGateRejectsWrongReference feeds the batch gate a reference
// digest that differs from the timed calls' and expects a failed run.
func TestBatchGateRejectsWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	p := wirePipeline(smokeSize.batchScale)
	call, calls := p.call, 0
	p.call = func(cfg longitudinal.Config, eras []topology.Era) (string, error) {
		d, err := call(cfg, eras)
		if calls++; calls == 1 { // the warm-up call sets the reference
			d = "deliberately wrong reference"
		}
		return d, err
	}
	r := newRun(&env{seed: 3, seconds: time.Millisecond, size: smokeSize, log: io.Discard})
	runBatch(r, p)
	if res := r.result(false); res.Correct || res.Failed == 0 {
		t.Fatalf("wrong reference passed the gate: %+v", res)
	}
	if !strings.Contains(strings.Join(r.failures, "\n"), "digest") {
		t.Errorf("failures do not name the digest mismatch: %v", r.failures)
	}
}

// TestDaemonGateRejectsWrongReference drains a real daemon and checks
// it against a corrupted snapshot reference and a wrong update count:
// each must fail the gate, and the true reference must pass.
func TestDaemonGateRejectsWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("boots atomd")
	}
	e := smokeEnv(t, buildAtomd(t))
	r := newRun(&e)
	in, err := prepareDaemon(r)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := referenceAtoms(in.snap, in.world.updates)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(e.atomd, 1, in.ribFiles)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	if _, errs := ingestAll(d.ingestAddr, in.plans, 2); errs != nil {
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	good := newRun(&e)
	checkDrained(good, d, in.planned, ref)
	if len(good.failures) != 0 {
		t.Fatalf("true reference failed the gate: %v", good.failures)
	}
	wrong := append([]byte(nil), ref...)
	wrong[len(wrong)/2] ^= 1
	bad := newRun(&e)
	checkDrained(bad, d, in.planned, wrong)
	if len(bad.failures) != 1 || !strings.Contains(bad.failures[0], "snapshot") {
		t.Errorf("corrupted reference: failures %v, want one snapshot mismatch", bad.failures)
	}
	miscount := newRun(&e)
	checkDrained(miscount, d, in.planned+1, ref)
	if len(miscount.failures) != 1 || !strings.Contains(miscount.failures[0], "ledger") {
		t.Errorf("wrong planned count: failures %v, want one ledger mismatch", miscount.failures)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which
// declares this benchmark's command, workloads and metrics, in step
// with what the program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, the program has %v", names, want)
	}
	seen := map[string]bool{}
	check := func(ms []metric, layer bool) {
		for _, m := range ms {
			def, ok := catalog[m.Name]
			switch {
			case !ok || def.layer != layer:
				t.Errorf("BENCHMARK.json metric %s (per-layer %v) is not reported by the program", m.Name, layer)
			case def.unit != m.Unit:
				t.Errorf("metric %s: unit %q, the program reports %q", m.Name, m.Unit, def.unit)
			}
			seen[m.Name] = true
		}
	}
	check(doc.EndToEnd, false)
	check(doc.PerLayer, true)
	var missing []string
	for name := range catalog {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("metrics missing from BENCHMARK.json: %v", missing)
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: better %q bound %g", m.Name, m.Better, m.Bound)
		}
	}
}
