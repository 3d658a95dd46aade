// Golden end-to-end fixture: a small seeded gensim scenario whose MRT
// archives are checked in under testdata/golden/, with the pipeline's
// output over them pinned byte-for-byte. Any change to the collector
// emitters, the MRT codec, the stream layer, sanitization, or atom
// computation that alters a single output byte fails here and must be
// re-pinned deliberately with:
//
//	go test -run TestGolden -update
package repro

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultgen/harness"
	"repro/internal/longitudinal"
	"repro/internal/sanitize"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

const goldenDir = "testdata/golden"

// goldenConfig pins the scenario: every constant here is part of the
// fixture's identity. Changing any of them requires -update.
func goldenConfig() harness.Config {
	return harness.Config{
		TopoSeed:   31,
		Scale:      0.002,
		Year:       2012,
		Quarter:    1,
		Collectors: 2,
		Workers:    1,
	}
}

// checkGolden byte-compares got against the pinned fixture, or rewrites
// the fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (rerun with -update to pin): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s drifted: generated %d bytes, pinned %d, first difference at byte %d\n"+
			"if the change is intentional, re-pin with `go test -run TestGolden -update`",
			name, len(got), len(want), i)
	}
}

// TestGoldenArchives pins every MRT archive the scenario emits: the
// collector emitters and the MRT writer may not change a byte without a
// deliberate re-pin.
func TestGoldenArchives(t *testing.T) {
	w := harness.BuildWorld(goldenConfig())
	if len(w.Ribs) == 0 || len(w.Upds) == 0 {
		t.Fatal("golden world generated no archives")
	}
	for name, data := range w.Ribs {
		checkGolden(t, name+".rib.mrt", data)
	}
	for name, data := range w.Upds {
		checkGolden(t, name+".updates.mrt", data)
	}
}

// TestGoldenPipeline pins the full pipeline's verdict over the golden
// archives — stream, sanitize, atoms — as canonical text.
func TestGoldenPipeline(t *testing.T) {
	cfg := goldenConfig()
	w := harness.BuildWorld(cfg)

	us := bgpstream.NewStream(nil, bgpstream.SortedSources(w.Upds)...)
	elems, err := us.All()
	if err != nil {
		t.Fatal(err)
	}

	opts := sanitize.Defaults()
	opts.SessionFlaps = us.StateFlaps()
	snap, rep, err := sanitize.Clean(bgpstream.SortedSources(w.Ribs), us.Warnings(), opts)
	if err != nil {
		t.Fatal(err)
	}
	atoms := core.ComputeAtoms(snap, nil, 1)

	var b strings.Builder
	fmt.Fprintf(&b, "golden pipeline v1\n")
	fmt.Fprintf(&b, "scenario topo=%d scale=%g era=%dQ%d collectors=%d\n",
		cfg.TopoSeed, cfg.Scale, cfg.Year, cfg.Quarter, cfg.Collectors)
	fmt.Fprintf(&b, "updates elems=%d warnings=%d\n", len(elems), len(us.Warnings()))
	fmt.Fprintf(&b, "feeds total=%d full=%d threshold=%d removed-peers=%d quarantined=%d\n",
		len(rep.Feeds), rep.FullFeeds, rep.FullFeedThreshold,
		len(rep.RemovedPeerASes), rep.QuarantinedFeeds)
	fmt.Fprintf(&b, "snapshot vps=%d prefixes=%d\n", len(snap.VPs), len(snap.Prefixes))
	fmt.Fprintf(&b, "atoms %d\n", len(atoms.Atoms))
	sizes := map[int]int{}
	for i := range atoms.Atoms {
		sizes[atoms.Atoms[i].Size()]++
	}
	var order []int
	for sz := range sizes {
		order = append(order, sz)
	}
	sort.Ints(order)
	for _, sz := range order {
		fmt.Fprintf(&b, "atom-size %d count %d\n", sz, sizes[sz])
	}
	for _, f := range rep.Feeds {
		fmt.Fprintf(&b, "feed %s full=%t prefixes=%d dups=%d\n",
			f.VP, f.FullFeed, f.UniquePrefixes, f.Duplicates)
	}
	checkGolden(t, "pipeline.txt", []byte(b.String()))
}

// TestGoldenExperiment pins one cheap experiment's rendered output end
// to end — the same artifact `go run ./cmd/atomrepro -only table1`
// prints at this scale.
func TestGoldenExperiment(t *testing.T) {
	e, ok := experiments.ByID("table1")
	if !ok {
		t.Fatal("experiment table1 not registered")
	}
	cfg := longitudinal.DefaultConfig(7)
	cfg.Scale = 0.004
	var buf bytes.Buffer
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.txt", buf.Bytes())
}

// TestExperimentDeterministicAcrossWorkers renders Table 1 fully
// sequential and with the full fan-out (workers=8: snapshot offsets and
// atom grouping parallel) and demands byte-identical text: no worker
// count may move a single character of a published table.
func TestExperimentDeterministicAcrossWorkers(t *testing.T) {
	e, ok := experiments.ByID("table1")
	if !ok {
		t.Fatal("experiment table1 not registered")
	}
	render := func(workers int) []byte {
		cfg := longitudinal.DefaultConfig(7)
		cfg.Scale = 0.004
		cfg.Workers = workers
		var buf bytes.Buffer
		if err := e.Run(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := render(1)
	eight := render(8)
	if !bytes.Equal(one, eight) {
		i := 0
		for i < len(one) && i < len(eight) && one[i] == eight[i] {
			i++
		}
		t.Errorf("table1 output diverges between workers 1 and 8 at byte %d\nworkers=1:\n%s\nworkers=8:\n%s", i, one, eight)
	}
}
