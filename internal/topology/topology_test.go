package topology

import (
	"net/netip"
	"testing"

	"repro/internal/prefixset"
)

func TestEraMath(t *testing.T) {
	cases := []struct {
		era     Era
		year, q int
		str     string
	}{
		{EraOf(2004, 1), 2004, 1, "2004Q1"},
		{EraOf(2004, 4), 2004, 4, "2004Q4"},
		{EraOf(2024, 4), 2024, 4, "2024Q4"},
		{EraOf(2002, 1), 2002, 1, "2002Q1"},
		{EraOf(2002, 3), 2002, 3, "2002Q3"},
		{EraOf(2011, 2), 2011, 2, "2011Q2"},
	}
	for _, tc := range cases {
		if tc.era.Year() != tc.year || tc.era.Quarter() != tc.q || tc.era.String() != tc.str {
			t.Errorf("era %d: got %d Q%d %q, want %d Q%d %q",
				tc.era, tc.era.Year(), tc.era.Quarter(), tc.era.String(), tc.year, tc.q, tc.str)
		}
	}
	if EraOf(2002, 1) != -8 {
		t.Errorf("2002Q1 = %d", EraOf(2002, 1))
	}
	if EraOf(2024, 4) != 83 {
		t.Errorf("2024Q4 = %d", EraOf(2024, 4))
	}
}

func TestCurveInterpolation(t *testing.T) {
	c := Curve{V2002: 10, V2004: 20, V2024: 120}
	if got := c.At(EraOf(2004, 1)); got != 20 {
		t.Errorf("2004 = %v", got)
	}
	if got := c.At(EraOf(2024, 4)); got != 120 {
		t.Errorf("2024 = %v", got)
	}
	if got := c.At(EraOf(2002, 1)); got != 10 {
		t.Errorf("2002 = %v", got)
	}
	mid := c.At(EraOf(2014, 2))
	if mid <= 20 || mid >= 120 {
		t.Errorf("mid = %v", mid)
	}
	if got := c.At(EraOf(2003, 1)); got <= 10 || got >= 20 {
		t.Errorf("2003 = %v", got)
	}
	// Clamped past the ends.
	if got := c.At(EraOf(2030, 1)); got != 120 {
		t.Errorf("2030 = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	if H64(1, 2, 3) != H64(1, 2, 3) {
		t.Error("H64 not deterministic")
	}
	if H64(1, 2, 3) == H64(1, 2, 4) || H64(1, 2) == H64(2, 1) {
		t.Error("H64 collisions on trivial inputs")
	}
	u := Unit(42, 7)
	if u < 0 || u >= 1 {
		t.Errorf("Unit = %v", u)
	}
	// Pick bounds.
	for i := 0; i < 100; i++ {
		if v := Pick(7, uint64(i)); v < 0 || v >= 7 {
			t.Fatalf("Pick out of range: %d", v)
		}
	}
	if Pick(0, 1) != 0 {
		t.Error("Pick(0) should be 0")
	}
	// geometric bounds and mean sanity.
	sum := 0
	for i := 0; i < 2000; i++ {
		g := geometric(0.5, 10, uint64(i))
		if g < 1 || g > 10 {
			t.Fatalf("geometric out of range: %d", g)
		}
		sum += g
	}
	mean := float64(sum) / 2000
	if mean < 1.7 || mean > 2.3 {
		t.Errorf("geometric(0.5) mean = %v, want ≈2", mean)
	}
}

func genTest(t *testing.T, era Era) *Graph {
	t.Helper()
	p := DefaultParams(7)
	p.Scale = 0.01
	return Generate(p, era)
}

func TestGenerateBasicInvariants(t *testing.T) {
	for _, era := range []Era{EraOf(2002, 1), EraOf(2004, 1), EraOf(2014, 1), EraOf(2024, 4)} {
		g := genTest(t, era)
		if g.NumASes() == 0 {
			t.Fatalf("%v: empty graph", era)
		}
		seenASN := map[uint32]bool{}
		for _, a := range g.ASes {
			if seenASN[a.ASN] {
				t.Fatalf("%v: duplicate ASN %d", era, a.ASN)
			}
			seenASN[a.ASN] = true
			if g.AS(a.ASN) != a {
				t.Fatalf("%v: index broken for %d", era, a.ASN)
			}
			// Relationship symmetry.
			for _, p := range a.Providers {
				if !contains(g.AS(p).Customers, a.ASN) {
					t.Fatalf("%v: provider %d missing customer %d", era, p, a.ASN)
				}
			}
			for _, p := range a.Peers {
				if !contains(g.AS(p).Peers, a.ASN) {
					t.Fatalf("%v: peer asymmetry %d-%d", era, p, a.ASN)
				}
			}
			// Non-clique ASes must have a provider (reachability).
			if a.Tier != TierClique && len(a.Providers) == 0 {
				t.Fatalf("%v: AS %d (%v) has no provider", era, a.ASN, a.Tier)
			}
			// No self-links.
			if contains(a.Providers, a.ASN) || contains(a.Peers, a.ASN) || contains(a.Customers, a.ASN) {
				t.Fatalf("%v: self link at %d", era, a.ASN)
			}
		}
		// Groups indexed densely, origins consistent, announce non-empty.
		for id, grp := range g.Groups {
			if grp == nil {
				t.Fatalf("%v: nil group %d", era, id)
			}
			if grp.ID != id {
				t.Fatalf("%v: group id mismatch %d != %d", era, grp.ID, id)
			}
			if len(grp.Prefixes) == 0 {
				t.Fatalf("%v: empty group %d", era, id)
			}
			if len(grp.Announce) == 0 {
				t.Fatalf("%v: group %d announces nowhere", era, id)
			}
			origin := g.AS(grp.Origin)
			if origin == nil {
				t.Fatalf("%v: group %d origin %d missing", era, grp.ID, grp.Origin)
			}
			for n := range grp.Announce {
				if !contains(origin.Providers, n) && !contains(origin.Peers, n) {
					t.Fatalf("%v: group %d announces to non-neighbor %d", era, grp.ID, n)
				}
			}
			// Family consistency.
			for _, pfx := range grp.Prefixes {
				v6 := pfx.Addr().Is6()
				if v6 != grp.V6 {
					t.Fatalf("%v: group %d family mix", era, grp.ID)
				}
			}
		}
	}
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTest(t, EraOf(2015, 3))
	b := genTest(t, EraOf(2015, 3))
	if a.NumASes() != b.NumASes() || len(a.Groups) != len(b.Groups) {
		t.Fatal("non-deterministic sizes")
	}
	av4, av6 := a.TotalPrefixes()
	bv4, bv6 := b.TotalPrefixes()
	if av4 != bv4 || av6 != bv6 {
		t.Fatal("non-deterministic prefixes")
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.Origin != gb.Origin || len(ga.Prefixes) != len(gb.Prefixes) {
			t.Fatalf("group %d differs", i)
		}
		for j := range ga.Prefixes {
			if ga.Prefixes[j] != gb.Prefixes[j] {
				t.Fatalf("group %d prefix %d differs", i, j)
			}
		}
	}
}

// TestGenerateMonotoneGrowth checks identity stability: prefixes present
// in an early era still exist (same prefix values) in a later era.
func TestGenerateMonotoneGrowth(t *testing.T) {
	early := genTest(t, EraOf(2006, 1))
	late := genTest(t, EraOf(2020, 1))
	lateSet := map[netip.Prefix]bool{}
	for _, grp := range late.Groups {
		for _, p := range grp.Prefixes {
			lateSet[p] = true
		}
	}
	missing := 0
	total := 0
	for _, grp := range early.Groups {
		for _, p := range grp.Prefixes {
			total++
			if !lateSet[p] {
				missing++
			}
		}
	}
	if total == 0 {
		t.Fatal("no early prefixes")
	}
	// A tiny number may vanish via rounding of per-AS counts; the bulk
	// must persist.
	if float64(missing)/float64(total) > 0.02 {
		t.Errorf("%d/%d early prefixes missing in later era", missing, total)
	}
	if lateASes, earlyASes := late.NumASes(), early.NumASes(); lateASes <= earlyASes {
		t.Errorf("no AS growth: %d -> %d", earlyASes, lateASes)
	}
	v4e, _ := early.TotalPrefixes()
	v4l, _ := late.TotalPrefixes()
	if v4l <= v4e {
		t.Errorf("no prefix growth: %d -> %d", v4e, v4l)
	}
}

func TestGenerateV6Adoption(t *testing.T) {
	none := genTest(t, EraOf(2006, 1))
	_, v6none := none.TotalPrefixes()
	// Pre-2008: only core v6 blocks (clique/transits), no origin v6.
	for _, a := range none.ASes {
		if a.Tier == TierStub && a.HasV6 {
			t.Errorf("stub %d has v6 in 2006", a.ASN)
		}
	}
	mid := genTest(t, EraOf(2014, 1))
	_, v6mid := mid.TotalPrefixes()
	late := genTest(t, EraOf(2024, 4))
	_, v6late := late.TotalPrefixes()
	if !(v6none < v6mid && v6mid < v6late) {
		t.Errorf("v6 adoption not growing: %d, %d, %d", v6none, v6mid, v6late)
	}
}

func TestGenerateFITI(t *testing.T) {
	pre := genTest(t, EraOf(2020, 4))
	post := genTest(t, EraOf(2022, 1))
	countFiti := func(g *Graph) int {
		n := 0
		for _, a := range g.ASes {
			if a.ASN >= fitiBaseASN && a.ASN < fitiBaseASN+100000 {
				n++
			}
		}
		return n
	}
	if countFiti(pre) != 0 {
		t.Error("FITI ASes before 2021")
	}
	nf := countFiti(post)
	if nf == 0 {
		t.Fatal("no FITI ASes after 2021")
	}
	// All FITI prefixes are /32s inside 240a:a000::/20, one per AS,
	// single-homed behind one org.
	covering := netip.MustParsePrefix("240a:a000::/20")
	var orgs = map[uint32]bool{}
	for _, a := range post.ASes {
		if a.ASN < fitiBaseASN || a.ASN >= fitiBaseASN+100000 {
			continue
		}
		if len(a.Groups) != 1 || len(a.Groups[0].Prefixes) != 1 {
			t.Fatalf("FITI AS %d has %d groups", a.ASN, len(a.Groups))
		}
		p := a.Groups[0].Prefixes[0]
		if p.Bits() != 32 || !covering.Contains(p.Addr()) {
			t.Fatalf("FITI prefix %v outside /20", p)
		}
		if len(a.Providers) != 1 {
			t.Fatalf("FITI AS %d has %d providers", a.ASN, len(a.Providers))
		}
		orgs[a.Org] = true
	}
	if len(orgs) != 1 {
		t.Errorf("FITI orgs = %d, want 1", len(orgs))
	}
}

func TestGenerateMOASUnderCap(t *testing.T) {
	g := genTest(t, EraOf(2024, 4))
	originsOf := map[netip.Prefix]map[uint32]bool{}
	for _, grp := range g.Groups {
		if grp.V6 {
			continue
		}
		for _, p := range grp.Prefixes {
			if originsOf[p] == nil {
				originsOf[p] = map[uint32]bool{}
			}
			originsOf[p][grp.Origin] = true
		}
	}
	moas, total := 0, 0
	for _, os := range originsOf {
		total++
		if len(os) > 1 {
			moas++
		}
	}
	share := float64(moas) / float64(total)
	if share == 0 {
		t.Error("no MOAS prefixes generated")
	}
	if share > 0.05 {
		t.Errorf("MOAS share %.3f above the paper's 5%% bound", share)
	}
}

func TestGenerateUniquePrefixesPerGroupSpace(t *testing.T) {
	g := genTest(t, EraOf(2024, 4))
	// Aside from deliberate MOAS duplicates, allocation must not collide:
	// a prefix may appear in at most 3 groups (MOAS chains), never more.
	count := map[netip.Prefix]int{}
	for _, grp := range g.Groups {
		for _, p := range grp.Prefixes {
			count[p]++
			if count[p] > 3 {
				t.Fatalf("prefix %v in >3 groups", p)
			}
		}
	}
}

func TestSiblingChains(t *testing.T) {
	p := DefaultParams(7)
	p.Scale = 0.05 // enough origins for chains to appear
	g := Generate(p, EraOf(2024, 4))
	chains := 0
	for _, a := range g.ASes {
		if a.Org != 0 && a.Org != a.ASN && a.Tier == TierStub {
			// A chain member: its provider must share the org or be the head.
			if len(a.Providers) != 1 {
				t.Errorf("chain member %d has %d providers", a.ASN, len(a.Providers))
			}
			chains++
		}
	}
	if chains == 0 {
		t.Error("no sibling chains generated at 0.05 scale")
	}
}

// TestCalibrationSnapshot logs the headline statistics the experiments
// depend on — run with -v to inspect while tuning curves.
func TestCalibrationSnapshot(t *testing.T) {
	for _, era := range []Era{EraOf(2004, 1), EraOf(2024, 4)} {
		p := DefaultParams(7)
		p.Scale = 0.02
		g := Generate(p, era)
		v4, v6 := g.TotalPrefixes()
		origins := g.OriginASes()
		groups := 0
		v4groups := 0
		for _, grp := range g.Groups {
			groups++
			if !grp.V6 {
				v4groups++
			}
		}
		var v4origins int
		for _, a := range origins {
			for _, grp := range a.Groups {
				if !grp.V6 {
					v4origins++
					break
				}
			}
		}
		t.Logf("%v: ASes=%d origins=%d v4origins=%d v4=%d v6=%d groups=%d v4groups=%d v4/AS=%.2f grp/AS=%.2f",
			era, g.NumASes(), len(origins), v4origins, v4, v6, groups, v4groups,
			float64(v4)/float64(v4origins), float64(v4groups)/float64(v4origins))
	}
}

func TestLogUniform(t *testing.T) {
	if got := logUniform(0, 3, 26); got != 3 {
		t.Errorf("logUniform(0) = %d", got)
	}
	if got := logUniform(0.9999, 3, 26); got != 26 {
		t.Errorf("logUniform(1-) = %d", got)
	}
	prev := 0
	for v := 0.0; v < 1.0; v += 0.05 {
		got := logUniform(v, 3, 26)
		if got < prev {
			t.Fatalf("logUniform not monotone at %v: %d < %d", v, got, prev)
		}
		prev = got
	}
}

func TestEffectiveCap(t *testing.T) {
	b := &builder{p: &Params{Scale: 1.0}}
	if got := b.effectiveCap(3600); got != 3600 {
		t.Errorf("full scale cap = %v", got)
	}
	b.p.Scale = 0.01
	if got := b.effectiveCap(3600); got != 900 {
		t.Errorf("0.01 scale cap = %v", got)
	}
	b.p.Scale = 0.0001
	if got := b.effectiveCap(3600); got != 60 {
		t.Errorf("tiny scale floor = %v", got)
	}
}

func TestStratifiedCoverage(t *testing.T) {
	// Any window of consecutive indices covers [0,1) nearly uniformly.
	const n = 500
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		u := stratified(7, 0x5a11, i)
		if u < 0 || u >= 1 {
			t.Fatalf("stratified out of range: %v", u)
		}
		buckets[int(u*10)]++
	}
	for b, c := range buckets {
		if c < n/10-10 || c > n/10+10 {
			t.Errorf("bucket %d count %d far from %d", b, c, n/10)
		}
	}
}

func TestAnnounceSignature(t *testing.T) {
	a := &PolicyGroup{Origin: 10, Announce: map[uint32]AnnouncePolicy{1: {}, 2: {Prepend: 1}}}
	b := &PolicyGroup{Origin: 10, Announce: map[uint32]AnnouncePolicy{2: {Prepend: 1}, 1: {}}}
	if announceSignature(a) != announceSignature(b) {
		t.Error("map order changed the signature")
	}
	c := &PolicyGroup{Origin: 10, Announce: map[uint32]AnnouncePolicy{1: {}, 2: {Prepend: 2}}}
	if announceSignature(a) == announceSignature(c) {
		t.Error("prepend difference not in the signature")
	}
	d := &PolicyGroup{Origin: 11, Announce: map[uint32]AnnouncePolicy{1: {}, 2: {Prepend: 1}}}
	if announceSignature(a) == announceSignature(d) {
		t.Error("origin not in the signature")
	}
	v6 := &PolicyGroup{Origin: 10, V6: true, Announce: map[uint32]AnnouncePolicy{1: {}, 2: {Prepend: 1}}}
	if announceSignature(a) == announceSignature(v6) {
		t.Error("family not in the signature")
	}
}

func TestSigIDsAssigned(t *testing.T) {
	g := genTest(t, EraOf(2020, 1))
	bySig := map[int][]*PolicyGroup{}
	for _, grp := range g.Groups {
		bySig[grp.SigID] = append(bySig[grp.SigID], grp)
	}
	if len(bySig) == 0 || len(bySig) > len(g.Groups) {
		t.Fatalf("sig count = %d of %d groups", len(bySig), len(g.Groups))
	}
	shared := 0
	for _, members := range bySig {
		for i := 1; i < len(members); i++ {
			if members[i].Origin != members[0].Origin || members[i].V6 != members[0].V6 {
				t.Fatalf("signature %d mixes origins/families", members[0].SigID)
			}
			if announceSignature(members[i]) != announceSignature(members[0]) {
				t.Fatalf("signature %d mixes announce policies", members[0].SigID)
			}
		}
		if len(members) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no shared signatures — the same-announce mechanism is dead")
	}
}

// TestPrefixAllocationNonOverlap verifies that distinct origin blocks
// never overlap (beyond deliberate MOAS duplicates, which are exact
// duplicates, not overlaps).
func TestPrefixAllocationNonOverlap(t *testing.T) {
	p := DefaultParams(7)
	p.Scale = 0.01
	p.Curves.MOASShare = Curve{0, 0, 0}
	g := Generate(p, EraOf(2024, 4))
	var ps []netip.Prefix
	for _, grp := range g.Groups {
		if !grp.V6 {
			ps = append(ps, grp.Prefixes...)
		}
	}
	// In (address, length) order a prefix that covers another sorts
	// before it with only prefixes it also covers in between, so
	// checking neighbours finds every overlap.
	prefixset.SortPrefixes(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i] == ps[i-1] {
			t.Fatalf("duplicate allocation %v", ps[i])
		}
		if ps[i].Overlaps(ps[i-1]) {
			t.Fatalf("prefix %v overlaps %v", ps[i], ps[i-1])
		}
	}
}
