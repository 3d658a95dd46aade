package routing

import (
	"maps"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/aspath"
	"repro/internal/topology"
)

// testTopology builds a small fixed Internet:
//
//	   T1a (1) ---peer--- T1b (2)
//	   /   \                |
//	 T2a(11) T2b(12)      T2c(13)
//	  |  \   /  |           |
//	  |   \ /   |           |
//	 VP1   O    VP2        VP3
//	(21)  (100) (22)       (23)
//
// Origin O (100) is a customer of T2a and T2b. VP1..3 are stubs used as
// vantage points. T1a/T1b form the clique; T2a,T2b under T1a; T2c under
// T1b.
func testTopology(groups []*topology.PolicyGroup) *topology.Graph {
	ases := []*topology.AS{
		{ASN: 1, Tier: topology.TierClique, Peers: []uint32{2}},
		{ASN: 2, Tier: topology.TierClique, Peers: []uint32{1}},
		{ASN: 11, Tier: topology.TierTransit, Providers: []uint32{1}},
		{ASN: 12, Tier: topology.TierTransit, Providers: []uint32{1}},
		{ASN: 13, Tier: topology.TierTransit, Providers: []uint32{2}},
		{ASN: 21, Tier: topology.TierStub, Providers: []uint32{11}},
		{ASN: 22, Tier: topology.TierStub, Providers: []uint32{12}},
		{ASN: 23, Tier: topology.TierStub, Providers: []uint32{13}},
		{ASN: 100, Tier: topology.TierStub, Providers: []uint32{11, 12}},
	}
	for _, a := range ases {
		if len(groups) > 0 && groups[0].Origin == a.ASN {
			a.Groups = groups
		}
	}
	return topology.NewGraph(topology.EraOf(2014, 1), 1, ases, groups)
}

func group(id int, origin uint32, announce map[uint32]topology.AnnouncePolicy, prefixes ...string) *topology.PolicyGroup {
	g := &topology.PolicyGroup{ID: id, Origin: origin, Announce: announce}
	for _, p := range prefixes {
		g.Prefixes = append(g.Prefixes, netip.MustParsePrefix(p))
	}
	return g
}

func pathOf(t *testing.T, e *Engine, u *topology.PolicyGroup, vp uint32) aspath.Seq {
	t.Helper()
	routes := e.PathsAt(u, []uint32{vp})
	return routes[0].Path
}

func TestEngineBasicPaths(t *testing.T) {
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}, "10.0.0.0/24")
	g := testTopology([]*topology.PolicyGroup{u})
	e := NewEngine(g, nil)

	// VP1 (21) sits under T2a (11), which hears O directly as customer.
	if got := pathOf(t, e, u, 21); !got.Equal(aspath.Seq{21, 11, 100}) {
		t.Errorf("VP1 path = %v", got)
	}
	// VP2 (22) under T2b (12), also a provider of O.
	if got := pathOf(t, e, u, 22); !got.Equal(aspath.Seq{22, 12, 100}) {
		t.Errorf("VP2 path = %v", got)
	}
	// VP3 (23) under T2c (13): route must climb T1b and cross the peering:
	// 23 13 2 1 11 100 or via 12 (tie broken by lower ASN → 11).
	if got := pathOf(t, e, u, 23); !got.Equal(aspath.Seq{23, 13, 2, 1, 11, 100}) {
		t.Errorf("VP3 path = %v", got)
	}
	// The origin itself.
	if got := pathOf(t, e, u, 100); !got.Equal(aspath.Seq{100}) {
		t.Errorf("origin path = %v", got)
	}
}

func TestEngineSelectiveAnnounce(t *testing.T) {
	// O announces only to T2b (12): VP1's path must go up and around.
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{12: {}}, "10.0.0.0/24")
	g := testTopology([]*topology.PolicyGroup{u})
	e := NewEngine(g, nil)
	if got := pathOf(t, e, u, 22); !got.Equal(aspath.Seq{22, 12, 100}) {
		t.Errorf("VP2 = %v", got)
	}
	// VP1 (21) under T2a (11): 11 did not hear from O directly; it gets
	// the route from its provider T1a (1), which heard from 12.
	if got := pathOf(t, e, u, 21); !got.Equal(aspath.Seq{21, 11, 1, 12, 100}) {
		t.Errorf("VP1 = %v", got)
	}
}

func TestEngineOriginPrepending(t *testing.T) {
	// O prepends 2 extra to T2a: path via 12 becomes shorter for T1a.
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {Prepend: 2}, 12: {}}, "10.0.0.0/24")
	g := testTopology([]*topology.PolicyGroup{u})
	e := NewEngine(g, nil)
	// VP1 still gets the customer route from 11 (customer class wins at
	// 11 regardless of length) but with the prepended origin.
	if got := pathOf(t, e, u, 21); !got.Equal(aspath.Seq{21, 11, 100, 100, 100}) {
		t.Errorf("VP1 = %v", got)
	}
	// T1a picks the shorter customer route via 12.
	if got := pathOf(t, e, u, 23); !got.Equal(aspath.Seq{23, 13, 2, 1, 12, 100}) {
		t.Errorf("VP3 = %v", got)
	}
}

func TestEngineCustomerPreferredOverPeer(t *testing.T) {
	// Give T1b a direct customer route to a second origin under it, then
	// check T1b prefers its (longer) customer route over the peer route.
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}, "10.0.0.0/24")
	ases := []*topology.AS{
		{ASN: 1, Tier: topology.TierClique, Peers: []uint32{2}},
		{ASN: 2, Tier: topology.TierClique, Peers: []uint32{1}},
		{ASN: 11, Tier: topology.TierTransit, Providers: []uint32{1}},
		{ASN: 12, Tier: topology.TierTransit, Providers: []uint32{1}},
		// 13 is customer of BOTH clique members and of 11 — it will hear
		// 100 from its provider 11 (provider class) and from 2 (provider
		// class)... so instead make 13 a *provider* chain: 100 -> 13 -> 2.
		{ASN: 13, Tier: topology.TierTransit, Providers: []uint32{2}},
		{ASN: 100, Tier: topology.TierStub, Providers: []uint32{11, 12, 13}},
		{ASN: 23, Tier: topology.TierStub, Providers: []uint32{13}},
	}
	u2 := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}, 13: {}}, "10.0.0.0/24")
	ases[5].Groups = []*topology.PolicyGroup{u2}
	g := topology.NewGraph(topology.EraOf(2014, 1), 1, ases, []*topology.PolicyGroup{u2})
	e := NewEngine(g, nil)
	_ = u
	// At T1b (2): customer route via 13 (cost 2) vs peer route via 1
	// (cost 2). Customer class must win.
	e.ComputeUnit(u2)
	r, ok := e.RouteAt(2)
	if !ok {
		t.Fatal("no route at 2")
	}
	if !r.Path.Equal(aspath.Seq{2, 13, 100}) {
		t.Errorf("T1b path = %v (class %v)", r.Path, r.Class)
	}
	if r.Class != ClassCustomer {
		t.Errorf("T1b class = %v", r.Class)
	}
}

func TestEngineWithdrawnUnit(t *testing.T) {
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}, "10.0.0.0/24")
	g := testTopology([]*topology.PolicyGroup{u})
	e := NewEngine(g, &Overlay{WithdrawnUnits: map[int]bool{0: true}})
	routes := e.PathsAt(u, []uint32{21, 22, 23})
	for i, r := range routes {
		if r.Path != nil {
			t.Errorf("route %d = %v, want withdrawn", i, r.Path)
		}
	}
}

func TestEngineAnnounceOverride(t *testing.T) {
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}, "10.0.0.0/24")
	g := testTopology([]*topology.PolicyGroup{u})
	ov := &Overlay{AnnounceOverride: map[int]map[uint32]topology.AnnouncePolicy{
		0: {12: {}}, // now only to 12
	}}
	e := NewEngine(g, ov)
	if got := pathOf(t, e, u, 21); !got.Equal(aspath.Seq{21, 11, 1, 12, 100}) {
		t.Errorf("VP1 = %v", got)
	}
}

func TestEngineExportFlip(t *testing.T) {
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}, "10.0.0.0/24")
	g := testTopology([]*topology.PolicyGroup{u})
	// Flip 11's export to its provider 1: T1a must now route via 12.
	ov := &Overlay{ExportFlip: map[int]ExportKey{
		0: {ASN: 11, Neighbor: 1},
	}}
	e := NewEngine(g, ov)
	// VP1 under 11 unaffected (customer route at 11).
	if got := pathOf(t, e, u, 21); !got.Equal(aspath.Seq{21, 11, 100}) {
		t.Errorf("VP1 = %v", got)
	}
	// VP3's path now goes via 12 (11 withheld its route from 1).
	if got := pathOf(t, e, u, 23); !got.Equal(aspath.Seq{23, 13, 2, 1, 12, 100}) {
		t.Errorf("VP3 = %v", got)
	}
}

func TestEngineVPSaltLocality(t *testing.T) {
	// With default tiebreak, T1a picks 11 over 12; salting node 1's
	// choice may flip it, but must not affect VP1/VP2 customer routes.
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}, "10.0.0.0/24")
	g := testTopology([]*topology.PolicyGroup{u})
	base := NewEngine(g, nil)
	baseVP3 := pathOf(t, base, u, 23).Clone()

	// Find a salt that flips node 1's equal-cost choice.
	flipped := false
	for salt := uint64(1); salt < 64 && !flipped; salt++ {
		e := NewEngine(g, &Overlay{VPSalt: map[uint32]uint64{1: salt}})
		got := pathOf(t, e, u, 23)
		if !got.Equal(baseVP3) {
			flipped = true
			if !got.Equal(aspath.Seq{23, 13, 2, 1, 12, 100}) {
				t.Errorf("flipped VP3 = %v", got)
			}
		}
		// Customer routes unaffected regardless of salt.
		if p := pathOf(t, e, u, 21); !p.Equal(aspath.Seq{21, 11, 100}) {
			t.Errorf("salt leaked into VP1: %v", p)
		}
	}
	if !flipped {
		t.Error("no salt flipped the equal-cost choice (tie-break not salted?)")
	}
}

func TestEngineDeterminism(t *testing.T) {
	p := topology.DefaultParams(11)
	p.Scale = 0.01
	g := topology.Generate(p, topology.EraOf(2012, 1))
	vps := []uint32{10, 100, 101, 102, 10000, 10001}
	e1 := NewEngine(g, nil)
	e2 := NewEngine(g, nil)
	for _, u := range g.Groups {
		r1 := e1.PathsAt(u, vps)
		r2 := e2.PathsAt(u, vps)
		for i := range r1 {
			if !r1[i].Path.Equal(r2[i].Path) {
				t.Fatalf("unit %d vp %d: %v != %v", u.ID, vps[i], r1[i].Path, r2[i].Path)
			}
		}
	}
}

// TestEngineValleyFree verifies that every computed path is valley-free
// (up* [peer-step] down*) and loop-free on a generated topology.
func TestEngineValleyFree(t *testing.T) {
	p := topology.DefaultParams(13)
	p.Scale = 0.01
	g := topology.Generate(p, topology.EraOf(2020, 1))
	// Build relationship lookup.
	rel := func(a, b uint32) int { // 1 = b is provider of a, -1 = b customer of a, 0 = peer, -9 unknown
		as := g.AS(a)
		for _, x := range as.Providers {
			if x == b {
				return 1
			}
		}
		for _, x := range as.Customers {
			if x == b {
				return -1
			}
		}
		for _, x := range as.Peers {
			if x == b {
				return 0
			}
		}
		return -9
	}
	vps := []uint32{10, 11, 100, 101, 110, 10005, 10017}
	e := NewEngine(g, nil)
	checked := 0
	for _, u := range g.Groups {
		if u.ID%7 != 0 {
			continue // sample for speed
		}
		for _, r := range e.PathsAt(u, vps) {
			if r.Path == nil {
				continue
			}
			seq := r.Path.StripPrepending()
			if seq.HasLoop() {
				t.Fatalf("loop in path %v", r.Path)
			}
			// Walk from the VP: each adjacent pair must be linked, and the
			// direction profile must be valley-free when read from origin:
			// ascending (customer→provider) steps, at most one peer step,
			// then descending. Reading from the VP side it is the mirror.
			// phase 0: descending from VP (VP side), phase 1: peer, phase 2: ascending (origin side).
			phase := 0
			for i := 0; i+1 < len(seq); i++ {
				r := rel(seq[i], seq[i+1])
				if r == -9 {
					t.Fatalf("non-adjacent hop %d-%d in %v", seq[i], seq[i+1], seq)
				}
				switch r {
				case -1: // next is customer of current: descending toward origin
					phase = 2
				case 0: // peer step
					if phase >= 1 {
						t.Fatalf("second lateral/up move after descent in %v", seq)
					}
					phase = 1
				case 1: // next is provider of current: ascending (still on VP side)
					if phase != 0 {
						t.Fatalf("up move after peer/descent (valley) in %v", seq)
					}
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
}

func TestChurnModelVersions(t *testing.T) {
	m := ChurnModel{Seed: 5, UnitEventRate: 0.5, VPEventRate: 0.2, TransitFlipShare: 0.4}
	grp := func(sig int) *topology.PolicyGroup { return &topology.PolicyGroup{ID: sig, SigID: sig} }
	// Versions are monotone in t and deterministic.
	for id := 0; id < 50; id++ {
		prev := 0
		for _, tm := range []float64{0, 0.5, 1, 5, 20, 100} {
			v := m.UnitVersion(grp(id), tm)
			if v < prev {
				t.Fatalf("unit %d version decreased: %d -> %d", id, prev, v)
			}
			if v != m.UnitVersion(grp(id), tm) {
				t.Fatal("non-deterministic version")
			}
			prev = v
		}
	}
	if m.UnitVersion(grp(3), 0) != 0 {
		t.Error("version at t=0 should be 0")
	}
	// Two groups sharing a signature share a clock.
	a := &topology.PolicyGroup{ID: 1, SigID: 9}
	b := &topology.PolicyGroup{ID: 2, SigID: 9}
	if m.UnitVersion(a, 50) != m.UnitVersion(b, 50) {
		t.Error("signature peers have different versions")
	}
	// Mean event rate sanity over many units at t=10 days: ~0.5/day.
	total := 0
	const n = 2000
	for id := 0; id < n; id++ {
		total += m.UnitVersion(grp(id), 10)
	}
	mean := float64(total) / n / 10
	if mean < 0.3 || mean > 0.7 {
		t.Errorf("mean unit rate = %v, want ≈0.5", mean)
	}
}

func TestChurnOverlayEffects(t *testing.T) {
	p := topology.DefaultParams(17)
	p.Scale = 0.01
	g := topology.Generate(p, topology.EraOf(2018, 1))
	vps := []uint32{10, 100, 101, 102}
	m := ChurnModel{Seed: 5, UnitEventRate: 0.3, VPEventRate: 0.1, TransitFlipShare: 0.4}

	ov0 := m.OverlayAt(g, 0, vps)
	if len(ov0.AnnounceOverride) != 0 || len(ov0.ExportFlip) != 0 || len(ov0.VPSalt) != 0 {
		t.Errorf("t=0 overlay not empty: %d/%d/%d",
			len(ov0.AnnounceOverride), len(ov0.ExportFlip), len(ov0.VPSalt))
	}
	ov30 := m.OverlayAt(g, 30, vps)
	if len(ov30.AnnounceOverride)+len(ov30.ExportFlip) == 0 {
		t.Fatal("t=30d overlay has no unit events")
	}
	// Overlays must change some paths but not most.
	e0 := NewEngine(g, ov0)
	e30 := NewEngine(g, ov30)
	changed, total := 0, 0
	for _, u := range g.Groups {
		r0 := e0.PathsAt(u, vps)
		r30 := e30.PathsAt(u, vps)
		for i := range r0 {
			total++
			if !r0[i].Path.Equal(r30[i].Path) {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Error("churn changed nothing")
	}
	if changed > total/2 {
		t.Errorf("churn changed %d/%d paths — too aggressive", changed, total)
	}
	// Announce overrides always keep at least one neighbor.
	for id, ann := range ov30.AnnounceOverride {
		if len(ann) == 0 {
			t.Errorf("unit %d override empty", id)
		}
	}
}

// TestApplyUnitVersionMatchesOverlayAt pins the consistency contract
// between update generation and snapshot overlays: starting from
// OverlayAt(t1) and applying each unit's version transitions must yield
// exactly the unit mutations OverlayAt(t2) would produce. Without this,
// synthesized update streams would disagree with RIB diffs.
func TestApplyUnitVersionMatchesOverlayAt(t *testing.T) {
	p := topology.DefaultParams(23)
	p.Scale = 0.008
	g := topology.Generate(p, topology.EraOf(2019, 1))
	m := ChurnModel{Seed: 9, UnitEventRate: 0.6, VPEventRate: 0.1,
		TransitFlipShare: 0.5, PrefixMobileShare: 0.02, PrefixBaseMoveRate: 0.01}
	vps := []uint32{10, 100, 101}
	t1, t2 := 3.0, 9.0

	evolved := m.OverlayAt(g, t1, vps)
	for _, u := range g.Groups {
		v1, v2 := m.UnitVersion(u, t1), m.UnitVersion(u, t2)
		vPrev := v1
		for k := v1 + 1; k <= v2; k++ {
			m.ApplyUnitVersion(g, evolved, u, vPrev, k)
			vPrev = k
		}
	}
	target := m.OverlayAt(g, t2, vps)

	// Announce overrides must match exactly.
	if len(evolved.AnnounceOverride) != len(target.AnnounceOverride) {
		t.Fatalf("override count %d != %d", len(evolved.AnnounceOverride), len(target.AnnounceOverride))
	}
	for id, want := range target.AnnounceOverride {
		got, ok := evolved.AnnounceOverride[id]
		if !ok {
			t.Fatalf("unit %d override missing after evolution", id)
		}
		if len(got) != len(want) {
			t.Fatalf("unit %d override size %d != %d", id, len(got), len(want))
		}
		for n, pol := range want {
			if got[n] != pol {
				t.Fatalf("unit %d neighbor %d: %+v != %+v", id, n, got[n], pol)
			}
		}
	}
	// Export flips must match exactly.
	if len(evolved.ExportFlip) != len(target.ExportFlip) {
		t.Fatalf("flip count %d != %d", len(evolved.ExportFlip), len(target.ExportFlip))
	}
	for id, want := range target.ExportFlip {
		if got, ok := evolved.ExportFlip[id]; !ok || got != want {
			t.Fatalf("unit %d flip %+v after evolution, want %+v", id, got, want)
		}
	}
}

// TestApplyUnitVersionFlipInvariant walks every unit's policy versions
// in quarter-day steps with ApplyUnitVersion and checks, after each
// step, that the overlay's unit mutations equal OverlayAt's at that
// time. The walk must cover flip→announce→flip and flip→flip version
// sequences: the unit-keyed flip map has to hold exactly the flip of a
// unit's current version, dropping the previous one as versions pass.
func TestApplyUnitVersionFlipInvariant(t *testing.T) {
	p := topology.DefaultParams(23)
	p.Scale = 0.004
	g := topology.Generate(p, topology.EraOf(2019, 1))
	m := ChurnModel{Seed: 9, UnitEventRate: 1.5, TransitFlipShare: 0.5}
	kind := func(u *topology.PolicyGroup, v int) byte {
		if unitf(m.Seed, 0xc4e6, uint64(u.SigID), uint64(v)) >= m.TransitFlipShare {
			return 'a'
		}
		if _, ok := m.flipKey(g, u, v); ok {
			return 'f'
		}
		return '-' // a flip with no transit to land on installs nothing
	}
	ov := m.OverlayAt(g, 0, nil)
	ver := make([]int, len(g.Groups))
	seqs := map[string]int{}
	for step := 1; step <= 40; step++ {
		at := float64(step) / 4
		for _, u := range g.Groups {
			for k := ver[u.ID] + 1; k <= m.UnitVersion(u, at); k++ {
				m.ApplyUnitVersion(g, ov, u, k-1, k)
				ver[u.ID] = k
				if k >= 2 && kind(u, k-1) == 'f' && kind(u, k) == 'f' {
					seqs["flip→flip"]++
				}
				if k >= 3 && kind(u, k-2) == 'f' && kind(u, k-1) == 'a' && kind(u, k) == 'f' {
					seqs["flip→announce→flip"]++
				}
			}
		}
		want := m.OverlayAt(g, at, nil)
		if !maps.Equal(ov.ExportFlip, want.ExportFlip) {
			t.Fatalf("t=%v: flips %v, want %v", at, ov.ExportFlip, want.ExportFlip)
		}
		if !reflect.DeepEqual(ov.AnnounceOverride, want.AnnounceOverride) {
			t.Fatalf("t=%v: announce overrides differ from OverlayAt", at)
		}
		for id := range ov.ExportFlip {
			if u := g.Groups[id]; kind(u, ver[id]) != 'f' {
				t.Fatalf("t=%v: unit %d holds a flip at version %d, which installs none", at, id, ver[id])
			}
		}
	}
	for _, s := range []string{"flip→flip", "flip→announce→flip"} {
		if seqs[s] == 0 {
			t.Errorf("walk never applied a %s version sequence", s)
		}
	}
}

// TestAltRouteAt checks the runner-up route used by VP shifts: it must
// differ from the best route and be absent when no alternative exists.
// Alternatives come from the final selection step's other candidates
// (other providers, the peer route behind a customer route); a losing
// same-class customer route is not tracked — real vantage points are
// multihomed transits whose alternatives are provider/peer candidates.
func TestAltRouteAt(t *testing.T) {
	u := group(0, 100, map[uint32]topology.AnnouncePolicy{11: {}, 12: {}}, "10.0.0.0/24")
	ases := []*topology.AS{
		{ASN: 1, Tier: topology.TierClique, Peers: []uint32{2}},
		{ASN: 2, Tier: topology.TierClique, Peers: []uint32{1}},
		{ASN: 11, Tier: topology.TierTransit, Providers: []uint32{1}},
		{ASN: 12, Tier: topology.TierTransit, Providers: []uint32{1}},
		{ASN: 21, Tier: topology.TierStub, Providers: []uint32{11}},
		// VP 24 is dual-homed: two provider-class candidates.
		{ASN: 24, Tier: topology.TierStub, Providers: []uint32{11, 12}},
		{ASN: 100, Tier: topology.TierStub, Providers: []uint32{11, 12}},
	}
	ases[6].Groups = []*topology.PolicyGroup{u}
	g := topology.NewGraph(topology.EraOf(2014, 1), 1, ases, []*topology.PolicyGroup{u})
	e := NewEngine(g, nil)
	e.ComputeUnit(u)

	best, ok := e.RouteAt(24)
	if !ok {
		t.Fatal("no best at 24")
	}
	if !best.Path.Equal(aspath.Seq{24, 11, 100}) {
		t.Fatalf("best at 24 = %v", best.Path)
	}
	alt, ok := e.AltRouteAt(24)
	if !ok {
		t.Fatal("no alt at 24")
	}
	if best.Path.Equal(alt.Path) {
		t.Fatalf("alt equals best: %v", alt.Path)
	}
	if !alt.Path.Equal(aspath.Seq{24, 12, 100}) {
		t.Errorf("alt at 24 = %v", alt.Path)
	}
	// VP 21 has exactly one provider and one route: no alternative.
	if _, ok := e.AltRouteAt(21); ok {
		t.Error("phantom alternative at single-homed stub")
	}
	// The origin has no alternative to itself.
	if _, ok := e.AltRouteAt(100); ok {
		t.Error("origin should have no alternative")
	}
}
