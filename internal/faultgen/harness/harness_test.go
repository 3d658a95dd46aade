package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faultgen"
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
	if problems := res.Problems(); len(problems) != 0 {
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
	if len(a.Problems())+len(b.Problems()) != 0 {
		t.Errorf("invariant violated at alternate seed:\n%s\n%s",
			strings.Join(a.Problems(), "\n"), strings.Join(b.Problems(), "\n"))
	}
}

// TestHarnessQuarantine drives the degradation budget hard enough that
// heavily damaged sources are quarantined, and asserts the harness
// still explains everything — including the all-feeds-removed refusal
// if every collector goes down.
func TestHarnessQuarantine(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.Classes = []faultgen.Class{faultgen.ClassBitFlip}
	cfg.FaultsPerArchive = 8
	cfg.DegradationMinRecords = 1
	cfg.DegradationMaxSkipRatio = 0.0001
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if problems := res.Problems(); len(problems) != 0 {
		t.Fatalf("invariant violated under quarantine pressure:\n%s\n\nreport:\n%s",
			strings.Join(problems, "\n"), res.Marshal())
	}
	oc := res.Classes[0]
	if oc.Quarantined == 0 && oc.Err == "" {
		t.Errorf("budget (min=1, ratio=0.0001) never quarantined: %s", res.Marshal())
	}
}
