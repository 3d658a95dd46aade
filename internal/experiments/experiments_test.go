package experiments

import (
	"strings"
	"testing"

	"repro/internal/longitudinal"
)

func tinyConfig() longitudinal.Config {
	cfg := longitudinal.DefaultConfig(5)
	cfg.Scale = 0.004
	return cfg
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 25 {
		t.Fatalf("experiments = %d, want 25 (7 tables + 16 figures + 2 ablations)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// runExperiment executes one experiment at tiny scale and returns output.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	var b strings.Builder
	if err := e.Run(tinyConfig(), &b); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return b.String()
}

func TestTable1Output(t *testing.T) {
	out := runExperiment(t, "table1")
	for _, want := range []string{"Number of prefixes", "Mean atom size", "1,028,444", "paper 2024"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out := runExperiment(t, "table2")
	for _, want := range []string{"Atom formed at dist 1", "Atom formed at dist 4", "45%", "breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Output(t *testing.T) {
	out := runExperiment(t, "table3")
	for _, want := range []string{"After 8 hours", "After 1 week", "96.3/98.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable6Output(t *testing.T) {
	out := runExperiment(t, "table6")
	for _, want := range []string{"8 hours", "Afek CAM", "13 full feeds"} {
		if !strings.Contains(out, want) {
			t.Errorf("table6 missing %q:\n%s", want, out)
		}
	}
}

func TestTable7Output(t *testing.T) {
	out := runExperiment(t, "table7")
	if !strings.Contains(out, "collectors \\ peerASes") {
		t.Errorf("table7 grid missing:\n%s", out)
	}
}

func TestFig1Output(t *testing.T) {
	out := runExperiment(t, "fig1")
	for _, want := range []string{"method (iii)", "method (ii)", "% atoms created"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Output(t *testing.T) {
	out := runExperiment(t, "fig6")
	if !strings.Contains(out, "observers <= n") {
		t.Errorf("fig6 missing CDF:\n%s", out)
	}
}

func TestAblationOutputs(t *testing.T) {
	out := runExperiment(t, "ablation-sanitize")
	for _, want := range []string{"Afek-2002 rules", "Removed abnormal peers"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation-sanitize missing %q:\n%s", want, out)
		}
	}
	out = runExperiment(t, "ablation-sampling")
	if !strings.Contains(out, "uncapped") {
		t.Errorf("ablation-sampling:\n%s", out)
	}
}

func TestFig12And13Output(t *testing.T) {
	out := runExperiment(t, "fig12")
	if !strings.Contains(out, "threshold") {
		t.Errorf("fig12:\n%s", out)
	}
	out = runExperiment(t, "fig13")
	if !strings.Contains(out, "full-feed peers") {
		t.Errorf("fig13:\n%s", out)
	}
}
