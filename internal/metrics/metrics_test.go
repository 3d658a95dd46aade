package metrics

import (
	"net/netip"
	"testing"

	"repro/internal/aspath"
	"repro/internal/core"
)

// mkSnap builds a snapshot from path strings ("" = missing).
func mkSnap(t *testing.T, vps int, rows [][]string) *core.Snapshot {
	t.Helper()
	vpList := make([]core.VP, vps)
	for i := range vpList {
		vpList[i] = core.VP{Collector: "rrc00", ASN: uint32(100 + i)}
	}
	prefixes := make([]netip.Prefix, len(rows))
	for i := range rows {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	s := core.NewSnapshot(0, vpList, prefixes)
	for p, row := range rows {
		for v, str := range row {
			if str == "" {
				continue
			}
			seq, err := aspath.ParseSeq(str)
			if err != nil {
				t.Fatal(err)
			}
			s.SetRoute(p, v, seq)
		}
	}
	return s
}

func pfx(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

func TestCorrelateUpdates(t *testing.T) {
	// Atom A = prefixes {0,1} (origin 1), atom B = {2} (origin 1),
	// atom C = {3} (origin 2). AS 1 has 3 prefixes, AS 2 has 1.
	s := mkSnap(t, 1, [][]string{
		{"100 1"},
		{"100 1"},
		{"100 200 1"},
		{"100 2"},
	})
	as := core.ComputeAtoms(s, nil, 1)
	recs := []UpdateRecord{
		{Prefixes: []netip.Prefix{pfx(0), pfx(1)}},         // atom A full; AS1 partial
		{Prefixes: []netip.Prefix{pfx(0)}},                 // atom A partial; AS1 partial
		{Prefixes: []netip.Prefix{pfx(0), pfx(1), pfx(2)}}, // atom A full, B full; AS1 full
		{Prefixes: []netip.Prefix{pfx(3)}},                 // atom C full; AS2 full
	}
	uc := CorrelateUpdates(as, recs, 7)
	if uc.Atom[2].All != 2 || uc.Atom[2].Partial != 1 {
		t.Errorf("atom k=2: %+v", uc.Atom[2])
	}
	if got := uc.Atom[2].Pr(); got < 0.66 || got > 0.67 {
		t.Errorf("atom Pr(2) = %v", got)
	}
	if uc.Atom[1].All != 2 || uc.Atom[1].Partial != 0 {
		t.Errorf("atom k=1: %+v", uc.Atom[1])
	}
	if uc.AS[3].All != 1 || uc.AS[3].Partial != 2 {
		t.Errorf("AS k=3: %+v", uc.AS[3])
	}
	if uc.AS[1].All != 1 {
		t.Errorf("AS k=1: %+v", uc.AS[1])
	}
	// AS 1 has a multi-prefix atom → counted in ASMultiAtom.
	if uc.ASMultiAtom[3].All != 1 || uc.ASMultiAtom[3].Partial != 2 {
		t.Errorf("multi-atom AS: %+v", uc.ASMultiAtom[3])
	}
	if uc.Atom[0].Pr() != -1 {
		t.Error("empty ratio should report -1")
	}
}

func TestCorrelateUpdatesSinglePrefixAtomAS(t *testing.T) {
	// AS 1 has two single-prefix atoms (different paths).
	s := mkSnap(t, 1, [][]string{
		{"100 1"},
		{"100 200 1"},
	})
	as := core.ComputeAtoms(s, nil, 1)
	recs := []UpdateRecord{
		{Prefixes: []netip.Prefix{pfx(0)}},
		{Prefixes: []netip.Prefix{pfx(0), pfx(1)}},
	}
	uc := CorrelateUpdates(as, recs, 7)
	if uc.ASSinglePrefixAtoms[2].All != 1 || uc.ASSinglePrefixAtoms[2].Partial != 1 {
		t.Errorf("single-prefix-atom AS: %+v", uc.ASSinglePrefixAtoms[2])
	}
	if uc.ASMultiAtom[2].All+uc.ASMultiAtom[2].Partial != 0 {
		t.Errorf("AS wrongly classified as multi-atom: %+v", uc.ASMultiAtom[2])
	}
}

func TestFormationDistanceBasics(t *testing.T) {
	// Origin 1, two atoms diverging at the 2nd hop from origin
	// (different providers 200/201): distance 2.
	s := mkSnap(t, 2, [][]string{
		{"100 200 1", "101 200 1"},
		{"100 201 1", "101 201 1"},
		// Origin 2: single atom → distance 1.
		{"100 200 2", "101 200 2"},
	})
	as := core.ComputeAtoms(s, nil, 1)
	res := FormationDistances(as, DefaultFormationOptions())
	if res.TotalAtoms != 3 || res.TotalOrigins != 2 {
		t.Fatalf("totals: %+v", res)
	}
	if res.AtomsAtDistance[1] != 1 || res.AtomsAtDistance[2] != 2 {
		t.Errorf("distances: %v", res.AtomsAtDistance)
	}
	if res.D1SingleAtom != 1 {
		t.Errorf("D1 single = %d", res.D1SingleAtom)
	}
	if res.FirstSplitAtDistance[1] != 1 || res.FirstSplitAtDistance[2] != 1 {
		t.Errorf("first split: %v", res.FirstSplitAtDistance)
	}
	if res.AllSplitAtDistance[2] != 1 {
		t.Errorf("all split: %v", res.AllSplitAtDistance)
	}
}

func TestFormationDistancePrependD1(t *testing.T) {
	// Two atoms differing only in origin prepending: distance 1 via
	// method (iii), cause = prepend.
	s := mkSnap(t, 1, [][]string{
		{"100 200 1"},
		{"100 200 1 1"},
	})
	as := core.ComputeAtoms(s, nil, 1)
	res := FormationDistances(as, DefaultFormationOptions())
	if res.AtomsAtDistance[1] != 2 {
		t.Errorf("distances: %v", res.AtomsAtDistance)
	}
	if res.D1Prepend != 2 {
		t.Errorf("D1 prepend = %d (breakdown: single=%d unique=%d)",
			res.D1Prepend, res.D1SingleAtom, res.D1UniquePeers)
	}

	// Method (ii) strips prepending first: the atoms become
	// indistinguishable and fall back to distance 1.
	opts := DefaultFormationOptions()
	opts.Method = MethodStripBeforeDistance
	res2 := FormationDistances(as, opts)
	if res2.AtomsAtDistance[1] != 2 {
		t.Errorf("method (ii) distances: %v", res2.AtomsAtDistance)
	}

	// Method (i) merges them into one atom entirely.
	opts.Method = MethodStripBeforeGrouping
	res1 := FormationDistances(as, opts)
	if res1.TotalAtoms != 1 || res1.D1SingleAtom != 1 {
		t.Errorf("method (i): %+v", res1)
	}
}

func TestFormationDistanceUniquePeers(t *testing.T) {
	// Atom B missing at VP2: visibility difference → distance 1.
	s := mkSnap(t, 2, [][]string{
		{"100 200 1", "101 200 1"},
		{"100 201 1", ""},
	})
	as := core.ComputeAtoms(s, nil, 1)
	res := FormationDistances(as, DefaultFormationOptions())
	if res.AtomsAtDistance[1] != 2 {
		t.Errorf("distances: %v", res.AtomsAtDistance)
	}
	if res.D1UniquePeers != 2 {
		t.Errorf("D1 unique peers = %d", res.D1UniquePeers)
	}
}

func TestFormationDistanceTransitSplit(t *testing.T) {
	// Same first hop from origin, divergence at hop 3 (distance 3):
	// (1, T, A, vp) vs (1, T, B, vp), origin-first notation.
	s := mkSnap(t, 1, [][]string{
		{"100 300 200 1"},
		{"100 301 200 1"},
	})
	as := core.ComputeAtoms(s, nil, 1)
	res := FormationDistances(as, DefaultFormationOptions())
	if res.AtomsAtDistance[3] != 2 {
		t.Errorf("distances: %v", res.AtomsAtDistance)
	}
}

func TestFormationMOASExcluded(t *testing.T) {
	s := mkSnap(t, 2, [][]string{
		{"100 200 1", "101 200 9"}, // MOAS conflict
		{"100 200 1", "101 200 1"},
	})
	as := core.ComputeAtoms(s, nil, 1)
	res := FormationDistances(as, DefaultFormationOptions())
	if res.SkippedMOAS != 1 {
		t.Errorf("skipped MOAS = %d", res.SkippedMOAS)
	}
	if res.TotalAtoms != 1 {
		t.Errorf("total atoms = %d", res.TotalAtoms)
	}
}

func TestFormationSampling(t *testing.T) {
	// A mega-origin with 50 atoms; cap sampling at 10.
	rows := make([][]string, 50)
	for i := range rows {
		rows[i] = []string{aspath.Seq{100, uint32(200 + i), 1}.String()}
	}
	s := mkSnap(t, 1, rows)
	as := core.ComputeAtoms(s, nil, 1)
	opts := DefaultFormationOptions()
	opts.MaxAtomsPerOrigin = 10
	res := FormationDistances(as, opts)
	if res.TotalAtoms != 10 {
		t.Errorf("sampled atoms = %d, want 10", res.TotalAtoms)
	}
	if res.AtomsAtDistance[2] != 10 {
		t.Errorf("distances: %v", res.AtomsAtDistance)
	}
}

func TestCompareStability(t *testing.T) {
	// t1: atoms {0,1} and {2}; t2: {0,1} intact, {2} split... with a
	// 1-prefix atom a "split" means a path change that regroups it.
	t1 := core.ComputeAtoms(mkSnap(t, 1, [][]string{
		{"100 1"},
		{"100 1"},
		{"100 200 1"},
	}), nil, 1)
	t2 := core.ComputeAtoms(mkSnap(t, 1, [][]string{
		{"100 1"},
		{"100 1"},
		{"100 1"}, // prefix 2 merged into the big atom
	}), nil, 1)
	st := CompareStability(t1, t2)
	// t2 has one atom {0,1,2}; its exact set did not exist at t1 → CAM 0.
	if st.CAM != 0 || st.MatchedAtoms != 0 || st.TotalAtoms != 1 {
		t.Errorf("CAM: %+v", st)
	}
	// Greedy MPM: the {0,1,2} atom maps to t1's {0,1} (overlap 2), and
	// t1's {2} is unmatched → 2/3.
	if st.MatchedPrefixes != 2 || st.TotalPrefixes != 3 {
		t.Errorf("MPM: %+v", st)
	}

	// Identity comparison: everything matches.
	ident := CompareStability(t1, t1)
	if ident.CAM != 1 || ident.MPM != 1 {
		t.Errorf("identity: %+v", ident)
	}
}

func TestCompareStabilityGreedyMapping(t *testing.T) {
	// t1 atom X = {0,1,2}; t2 atoms P = {0,1}, Q = {2}. Greedy maps X→P
	// (overlap 2), Q unmatched: MPM = 2/3. CAM: neither P nor Q existed
	// at t1 → 0.
	t1 := core.ComputeAtoms(mkSnap(t, 1, [][]string{
		{"100 1"}, {"100 1"}, {"100 1"},
	}), nil, 1)
	t2 := core.ComputeAtoms(mkSnap(t, 1, [][]string{
		{"100 1"}, {"100 1"}, {"100 200 1"},
	}), nil, 1)
	st := CompareStability(t1, t2)
	if st.CAM != 0 {
		t.Errorf("CAM = %v", st.CAM)
	}
	if st.MatchedPrefixes != 2 || st.TotalPrefixes != 3 {
		t.Errorf("MPM: %+v", st)
	}
}

func TestDetectSplits(t *testing.T) {
	// Atom {0,1} stable at t0,t1; at t2 VP1 sees different paths for 0
	// and 1 while VP0 still sees them together.
	mk := func(rows [][]string) *core.AtomSet {
		return core.ComputeAtoms(mkSnap(t, 2, rows), nil, 1)
	}
	s0 := mk([][]string{
		{"100 200 1", "101 200 1"},
		{"100 200 1", "101 200 1"},
	})
	s1 := mk([][]string{
		{"100 200 1", "101 200 1"},
		{"100 200 1", "101 200 1"},
	})
	s2 := mk([][]string{
		{"100 200 1", "101 200 1"},
		{"100 200 1", "101 201 1"},
	})
	events := DetectSplits(s0, s1, s2)
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	if len(events[0].Observers) != 1 || events[0].Observers[0].ASN != 101 {
		t.Errorf("observers = %+v", events[0].Observers)
	}

	// No split when nothing changes.
	if got := DetectSplits(s0, s1, s1); len(got) != 0 {
		t.Errorf("no-change split events = %d", len(got))
	}

	// Atom not established at t0 → no event even if split at t2.
	s0b := mk([][]string{
		{"100 200 1", "101 200 1"},
		{"100 209 1", "101 209 1"},
	})
	if got := DetectSplits(s0b, s1, s2); len(got) != 0 {
		t.Errorf("unestablished split events = %d", len(got))
	}
}

func TestDetectSplitsMissingPrefix(t *testing.T) {
	mk := func(rows [][]string) *core.AtomSet {
		return core.ComputeAtoms(mkSnap(t, 1, rows), nil, 1)
	}
	s01 := mk([][]string{
		{"100 200 1"},
		{"100 200 1"},
	})
	// t2 snapshot lacks prefix 1 entirely (filtered out): treated as a
	// split with the sole VP observing (present vs missing).
	vpList := []core.VP{{Collector: "rrc00", ASN: 100}}
	s2snap := core.NewSnapshot(0, vpList, []netip.Prefix{pfx(0)})
	seq, _ := aspath.ParseSeq("100 200 1")
	s2snap.SetRoute(0, 0, seq)
	s2 := core.ComputeAtoms(s2snap, nil, 1)
	events := DetectSplits(s01, s01, s2)
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	if len(events[0].Observers) != 1 {
		t.Errorf("observers = %+v", events[0].Observers)
	}
}

func TestObserverCDFAndBreakdown(t *testing.T) {
	vp := func(asn uint32) core.VP { return core.VP{Collector: "c", ASN: asn} }
	events := []SplitEvent{
		{Observers: []core.VP{vp(1)}},
		{Observers: []core.VP{vp(1)}},
		{Observers: []core.VP{vp(2)}},
		{Observers: []core.VP{vp(1), vp(2)}},
		{Observers: nil},
	}
	cdf := BuildObserverCDF(events)
	if cdf.Total != 5 || cdf.Counts[1] != 3 || cdf.Counts[2] != 1 || cdf.Counts[0] != 1 {
		t.Errorf("cdf = %+v", cdf)
	}
	if got := cdf.FractionAtMost(1); got != 0.8 {
		t.Errorf("FractionAtMost(1) = %v", got)
	}
	if got := cdf.FractionAtMost(10); got != 1.0 {
		t.Errorf("FractionAtMost(10) = %v", got)
	}

	b := BreakdownDay(3, events)
	if b.Day != 3 || b.Events != 5 || b.SingleObserver != 3 || b.MultiObserver != 1 {
		t.Errorf("breakdown = %+v", b)
	}
	if b.TopVP != vp(1) || b.TopVPEvents != 2 {
		t.Errorf("top VP = %+v", b)
	}
	if b.SecondVP != vp(2) || b.SecondVPEvents != 1 || b.OtherSingleVPEvents != 0 {
		t.Errorf("second VP = %+v", b)
	}
	empty := BuildObserverCDF(nil)
	if empty.FractionAtMost(1) != 0 {
		t.Error("empty CDF fraction")
	}
}
