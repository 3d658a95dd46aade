package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultgen"
	"repro/internal/mrt"
	"repro/internal/parallel"
)

// TestHarnessInvariantAllClasses is the PR's core assertion: for every
// fault class, the damaged pipeline either absorbs the damage or
// contains it with a full explanation — never silently diverges — and
// the whole harness is byte-deterministic across reruns and worker
// counts.
func TestHarnessInvariantAllClasses(t *testing.T) {
	cfg := DefaultConfig(17)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if problems := res.problems(); len(problems) != 0 {
		t.Fatalf("invariant violated:\n%s\n\nfull report:\n%s",
			strings.Join(problems, "\n"), res.Marshal())
	}
	if len(res.Classes) != len(faultgen.AllClasses()) {
		t.Fatalf("judged %d classes, want %d", len(res.Classes), len(faultgen.AllClasses()))
	}
	verdicts := map[string]int{}
	for _, c := range res.Classes {
		if c.Verdict != "absorbed" && c.Verdict != "contained" {
			t.Errorf("%s: verdict %q", c.Class, c.Verdict)
		}
		verdicts[c.Verdict]++
		if c.Verdict == "contained" && c.Signals == 0 {
			t.Errorf("%s: contained with zero signals", c.Class)
		}
		if len(c.Schedule.Faults) == 0 {
			t.Errorf("%s: empty schedule — the class was never exercised", c.Class)
		}
	}
	t.Logf("verdicts: %v", verdicts)

	// Rerun with the same config: byte-identical report.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Marshal(), res2.Marshal()) {
		t.Errorf("same config, different reports:\n%s\n---\n%s", res.Marshal(), res2.Marshal())
	}

	// Same seed at 8 workers: the parallel pipeline must not change a
	// single byte of the verdict. Lift the pool's effective-CPU clamp so
	// atom grouping really fans out even on a single-core host.
	parallel.ForceParallel(true)
	defer parallel.ForceParallel(false)
	cfg8 := cfg
	cfg8.Workers = 8
	res8, err := Run(cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Marshal(), res8.Marshal()) {
		t.Errorf("workers=1 and workers=8 disagree:\n%s\n---\n%s", res.Marshal(), res8.Marshal())
	}
}

// TestHarnessDifferentSeedDifferentSchedule guards against the seed
// being ignored somewhere in the plumbing.
func TestHarnessDifferentSeedDifferentSchedule(t *testing.T) {
	a, err := Run(DefaultConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Error("seeds 17 and 18 produced identical reports")
	}
	if len(a.problems())+len(b.problems()) != 0 {
		t.Errorf("invariant violated at alternate seed:\n%s\n%s",
			strings.Join(a.problems(), "\n"), strings.Join(b.problems(), "\n"))
	}
}

// TestHarnessQuarantine drives the fixed degradation budget hard enough
// that heavily damaged sources are quarantined: 64 ADD-PATH rewrites per
// archive skip more than 30% of the records of RIB and update archives
// far past 16 records. The harness must still explain everything —
// including the all-feeds-removed refusal if every collector goes down.
func TestHarnessQuarantine(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.Classes = []faultgen.Class{faultgen.ClassAddPathMix}
	cfg.FaultsPerArchive = 64
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if problems := res.problems(); len(problems) != 0 {
		t.Fatalf("invariant violated under quarantine pressure:\n%s\n\nreport:\n%s",
			strings.Join(problems, "\n"), res.Marshal())
	}
	oc := res.Classes[0]
	if oc.Quarantined == 0 && oc.Err == "" {
		t.Errorf("%d ADD-PATH faults per archive never quarantined: %s", cfg.FaultsPerArchive, res.Marshal())
	}
}

// TestHarnessQuarantineAtDefaults: an update archive of 16 records (the
// degradation budget's minimum), every one skipped, is quarantined and
// its collector's feeds are dropped from the snapshot.
func TestHarnessQuarantineAtDefaults(t *testing.T) {
	cfg := DefaultConfig(17)
	w := BuildWorld(cfg)
	var archive bytes.Buffer
	mw := mrt.NewWriter(&archive)
	for i := 0; i < 16; i++ {
		// BGP4MP subtype 13 is undefined: the stream warns and skips it.
		if err := mw.WriteRecord(mrt.Record{Timestamp: uint32(i), Type: mrt.TypeBGP4MP, Subtype: 13, Body: []byte{0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	upds := make(map[string][]byte, len(w.Upds))
	var victim string
	for name, data := range w.Upds {
		upds[name] = data
		if victim == "" || name < victim {
			victim = name
		}
	}
	upds[victim] = archive.Bytes()

	out := runPipeline(cfg, w.Ribs, upds)
	if !slices.Contains(out.UpdQuarantined, victim) {
		t.Fatalf("update archive %s with every record skipped not quarantined at DefaultConfig (quarantined: %v)", victim, out.UpdQuarantined)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !slices.Contains(out.Rep.QuarantinedCollectors, victim) {
		t.Errorf("sanitize report quarantines %v, want %s among them", out.Rep.QuarantinedCollectors, victim)
	}
}
