package dynamics

import (
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/longitudinal"
	"repro/internal/metrics"
	"repro/internal/topology"
)

func pfx(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
}

// handSnapshot builds an atom set with one 3-prefix atom {0,1,2}, one
// 2-prefix atom {3,4}, and a singleton {5}.
func handSnapshot(t *testing.T) *core.AtomSet {
	t.Helper()
	vps := []core.VP{{Collector: "c", ASN: 1}}
	prefixes := []netip.Prefix{pfx(0), pfx(1), pfx(2), pfx(3), pfx(4), pfx(5)}
	s := core.NewSnapshot(0, vps, prefixes)
	pathA := aspath.Seq{1, 100}
	pathB := aspath.Seq{1, 200}
	pathC := aspath.Seq{1, 300}
	for i := 0; i < 3; i++ {
		s.SetRoute(i, 0, pathA)
	}
	s.SetRoute(3, 0, pathB)
	s.SetRoute(4, 0, pathB)
	s.SetRoute(5, 0, pathC)
	return core.ComputeAtoms(s, nil, 1)
}

func rec(prefixes ...netip.Prefix) metrics.UpdateRecord {
	return metrics.UpdateRecord{Prefixes: prefixes}
}

func TestClassifyKinds(t *testing.T) {
	as := handSnapshot(t)
	records := []metrics.UpdateRecord{
		rec(pfx(0), pfx(1), pfx(2)), // full atom → atom event
		rec(pfx(3), pfx(4)),         // full atom → atom event
		rec(pfx(0)),                 // one of three → noise
		rec(pfx(3), pfx(0), pfx(1)), // atom {3,4} partial is 1 of 2 → noise; atom {0,1,2} covered 2/3 → partial
		rec(pfx(5)),                 // singleton, appears once → singleton
	}
	rep := Classify(as, records, DefaultOptions())
	if rep.AtomEvents != 2 {
		t.Errorf("atom events = %d, want 2", rep.AtomEvents)
	}
	if rep.Partials != 1 {
		t.Errorf("partials = %d, want 1", rep.Partials)
	}
	if rep.Noise != 2 {
		t.Errorf("noise = %d, want 2", rep.Noise)
	}
	if rep.Singletons != 1 {
		t.Errorf("singletons = %d, want 1", rep.Singletons)
	}
}

func TestClassifyFlappingSingleton(t *testing.T) {
	as := handSnapshot(t)
	// The singleton prefix flaps at 4 distinct instants: repetition
	// marks it noise.
	var records []metrics.UpdateRecord
	for i := 0; i < 4; i++ {
		r := rec(pfx(5))
		r.Timestamp = uint32(100 + i*60)
		records = append(records, r)
	}
	rep := Classify(as, records, DefaultOptions())
	if rep.Noise != 4 || rep.Singletons != 0 {
		t.Errorf("flapping singleton: noise=%d singletons=%d", rep.Noise, rep.Singletons)
	}
	if rep.NoiseShare() != 1.0 {
		t.Errorf("noise share = %v", rep.NoiseShare())
	}
}

func TestPrioritized(t *testing.T) {
	as := handSnapshot(t)
	records := []metrics.UpdateRecord{
		// Atom {0,1,2}: one clean atom event.
		rec(pfx(0), pfx(1), pfx(2)),
		// Atom {3,4}: one atom event drowned in noise.
		rec(pfx(3), pfx(4)),
		rec(pfx(3)), rec(pfx(3)), rec(pfx(4)), rec(pfx(3)),
	}
	rep := Classify(as, records, DefaultOptions())
	pri := rep.Prioritized()
	if len(pri) != 2 {
		t.Fatalf("prioritized = %d", len(pri))
	}
	// The clean atom ranks first.
	if pri[0].Noise != 0 || pri[1].Noise == 0 {
		t.Errorf("priority order wrong: %+v then %+v", pri[0], pri[1])
	}
	if pri[0].StabilityScore() <= pri[1].StabilityScore() {
		t.Errorf("scores not ordered: %v vs %v", pri[0].StabilityScore(), pri[1].StabilityScore())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindAtomEvent: "atom-event", KindPartialEvent: "partial",
		KindNoise: "noise", KindSingleton: "singleton", Kind(0): "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
}

// TestClassifyAgainstSimulatorGroundTruth runs the lens over a real
// synthesized stream: ground-truth flap noise must be classified as
// noise at high precision, and unit-event batches as atom events.
func TestClassifyAgainstSimulatorGroundTruth(t *testing.T) {
	cfg := longitudinal.DefaultConfig(5)
	cfg.Scale = 0.008
	r := longitudinal.NewEraRun(cfg, topology.EraOf(2016, 1))
	atoms, _, err := r.SnapshotAt(longitudinal.OffsetBase)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := r.Updates(longitudinal.OffsetBase, longitudinal.OffsetBase+longitudinal.UpdateHours)
	if err != nil {
		t.Fatal(err)
	}
	rep := Classify(atoms, records, DefaultOptions())
	if len(rep.Events) == 0 {
		t.Skip("no events at this scale")
	}
	// The stream contains both signal and noise by construction.
	if rep.AtomEvents == 0 {
		t.Error("no atom events recognized in a stream with unit events")
	}
	if rep.Noise == 0 {
		t.Error("no noise recognized in a stream with flaps")
	}
	// Prioritized atoms exist and are score-ordered.
	pri := rep.Prioritized()
	for i := 1; i < len(pri); i++ {
		if pri[i-1].StabilityScore() < pri[i].StabilityScore() {
			t.Fatalf("priorities out of order at %d", i)
		}
	}
}
