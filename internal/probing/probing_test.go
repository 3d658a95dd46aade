package probing

import (
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/longitudinal"
	"repro/internal/topology"
)

func pfx(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
}

func handAtoms(t *testing.T) *core.AtomSet {
	t.Helper()
	vps := []core.VP{{Collector: "c", ASN: 1}, {Collector: "c", ASN: 2}}
	prefixes := []netip.Prefix{pfx(0), pfx(1), pfx(2), pfx(3)}
	s := core.NewSnapshot(0, vps, prefixes)
	a := aspath.Seq{1, 100}
	b := aspath.Seq{2, 100}
	c := aspath.Seq{1, 200}
	for i := 0; i < 3; i++ { // atom {0,1,2}
		s.SetRoute(i, 0, a)
		s.SetRoute(i, 1, b)
	}
	s.SetRoute(3, 0, c) // singleton {3}
	return core.ComputeAtoms(s, nil, 1)
}

func TestBuildPlanAndReduction(t *testing.T) {
	as := handAtoms(t)
	plan := BuildPlan(as)
	if len(plan.Representatives) != 2 {
		t.Fatalf("representatives = %d", len(plan.Representatives))
	}
	if got := plan.Reduction(); got != 0.5 {
		t.Errorf("reduction = %v, want 0.5 (2 targets for 4 prefixes)", got)
	}
	// Representative of the big atom is its lowest prefix.
	if plan.RepOf[pfx(2)] != pfx(0) || plan.RepOf[pfx(0)] != pfx(0) {
		t.Errorf("RepOf = %v", plan.RepOf)
	}
	// Perfect accuracy on the defining snapshot.
	acc := plan.Accuracy(as.Snap)
	if acc.Rate() != 1.0 || acc.Mismatches != 0 {
		t.Errorf("self accuracy = %+v", acc)
	}
	if got := plan.StalePrefixes(as.Snap); len(got) != 0 {
		t.Errorf("stale on self = %v", got)
	}
}

func TestAccuracyDecay(t *testing.T) {
	as := handAtoms(t)
	plan := BuildPlan(as)

	// A later snapshot where prefix 2 diverged at VP 2.
	vps := as.Snap.VPs
	later := core.NewSnapshot(1, vps, as.Snap.Prefixes)
	for p := range as.Snap.Prefixes {
		for v := range vps {
			later.SetRoute(p, v, as.Snap.Route(p, v))
		}
	}
	later.SetRoute(2, 1, aspath.Seq{2, 999, 100})
	acc := plan.Accuracy(later)
	// 4 prefixes × 2 VPs = 8 observations, 1 mismatch.
	if acc.Observations != 8 || acc.Mismatches != 1 {
		t.Errorf("accuracy = %+v", acc)
	}
	if got := acc.Rate(); got != 7.0/8.0 {
		t.Errorf("rate = %v", got)
	}
	stale := plan.StalePrefixes(later)
	if len(stale) != 1 || stale[0] != pfx(2) {
		t.Errorf("stale = %v", stale)
	}
}

func TestAccuracyMissingPrefixes(t *testing.T) {
	as := handAtoms(t)
	plan := BuildPlan(as)
	// Later snapshot lost the representative pfx(0) but kept members.
	vps := as.Snap.VPs
	kept := []netip.Prefix{pfx(1), pfx(2), pfx(3)}
	later := core.NewSnapshot(1, vps, kept)
	for i, p := range kept {
		var orig int
		for j, q := range as.Snap.Prefixes {
			if q == p {
				orig = j
			}
		}
		for v := range vps {
			later.SetRoute(i, v, as.Snap.Route(orig, v))
		}
	}
	acc := plan.Accuracy(later)
	if acc.SkippedPrefixes != 1 {
		t.Errorf("skipped = %d", acc.SkippedPrefixes)
	}
	// Members 1,2 score against a vanished representative: mismatches.
	if acc.Mismatches != 4 {
		t.Errorf("mismatches = %d (want 2 prefixes × 2 VPs)", acc.Mismatches)
	}
}

// TestPlanOverSimulatedWeeks reproduces the iPlane observation: probing
// per atom saves most probes, accuracy decays slowly, and the plan is
// worth refreshing on the order of weeks.
func TestPlanOverSimulatedWeeks(t *testing.T) {
	cfg := longitudinal.DefaultConfig(5)
	cfg.Scale = 0.006
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2012, 1))
	base, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildPlan(base)
	if plan.Reduction() <= 0.2 {
		t.Errorf("reduction = %v — atoms should cut probe targets substantially", plan.Reduction())
	}
	if acc := plan.Accuracy(base.Snap); acc.Rate() != 1 {
		t.Fatalf("self accuracy = %v", acc.Rate())
	}
	week, _, err := r.SnapshotAt(longitudinal.OffsetBase + 7)
	if err != nil {
		t.Fatal(err)
	}
	acc1w := plan.Accuracy(week.Snap)
	if acc1w.Rate() < 0.85 {
		t.Errorf("1-week accuracy %v — should stay high (atom stability)", acc1w.Rate())
	}
	twoWeeks, _, err := r.SnapshotAt(longitudinal.OffsetBase + 14)
	if err != nil {
		t.Fatal(err)
	}
	acc2w := plan.Accuracy(twoWeeks.Snap)
	if acc2w.Rate() > acc1w.Rate()+0.01 {
		t.Errorf("accuracy grew with staleness: %v then %v", acc1w.Rate(), acc2w.Rate())
	}
	t.Logf("reduction=%.1f%% accuracy: self=100%% 1w=%.1f%% 2w=%.1f%% stale-after-2w=%d",
		100*plan.Reduction(), 100*acc1w.Rate(), 100*acc2w.Rate(), len(plan.StalePrefixes(twoWeeks.Snap)))
}
