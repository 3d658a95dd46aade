package topology

import (
	"encoding/binary"
	"math"
	"net/netip"
	"slices"
)

// ASN layout. Identities are stable functions of creation index so that
// consecutive eras grow the same Internet.
const (
	cliqueSize    = 12
	cliqueBaseASN = 10
	transitBase   = 100
	originBase    = 10000
	origin4Byte   = 131072 // origins past the 2-octet space spill here
	fitiBaseASN   = 600000
)

// v4 address layout: origins carve /21–/24 prefixes out of per-AS slot
// runs (one slot = one /24); transits use a disjoint high region.
const (
	slotStride      = 8               // /24 slots reserved per prefix (max size /21)
	originSlotBase  = 1 << 16         // 1.0.0.0
	transitSlotBase = 0xC0000000 >> 8 // 192.0.0.0
)

// Generate builds the Internet graph for one era. The result is
// deterministic in (p.Seed, era).
func Generate(p Params, era Era) *Graph {
	if p.Scale <= 0 {
		p.Scale = 0.02
	}
	g := &Graph{Era: era, Seed: p.Seed, Params: p}

	b := &builder{g: g, p: &p, era: era}
	b.buildClique()
	b.buildTransits()
	b.buildOrigins()
	b.buildFITI()
	b.assignTransitPrefixes()
	b.assignOriginPrefixes()
	b.moasPass()
	b.collectGroups()
	g.finish()
	return g
}

type builder struct {
	g   *Graph
	p   *Params
	era Era

	clique   []*AS
	transits []*AS
	origins  []*AS // indexed by creation index
	fiti     []*AS

	groupID int
}

func (b *builder) seed() uint64 { return b.p.Seed }

// buildClique creates the Tier-1 full mesh.
func (b *builder) buildClique() {
	sel := b.p.Curves.TransitSelectivity.At(b.era)
	for i := 0; i < cliqueSize; i++ {
		a := &AS{
			ASN: uint32(cliqueBaseASN + i), Index: i, Tier: TierClique,
			HasV6:       true,
			Selectivity: sel * 0.3 * 2 * Unit(b.seed(), 0xc11, uint64(i)),
			PrependRate: b.p.Curves.TransitPrependRate.At(b.era) * 0.5,
		}
		b.clique = append(b.clique, a)
		b.g.ASes = append(b.g.ASes, a)
		b.g.CliqueASNs = append(b.g.CliqueASNs, a.ASN)
	}
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			peerLink(b.clique[i], b.clique[j])
		}
	}
}

// buildTransits creates the transit core below the clique. Transit i's
// providers come from the clique and earlier transits; transit-transit
// peering density grows with the era (flattening), monotonically: a pair
// peers once the density curve passes its fixed hash draw.
func (b *builder) buildTransits() {
	n := scaled(b.p.Curves.TransitASes.At(b.era), math.Sqrt(b.p.Scale), 8)
	sel := b.p.Curves.TransitSelectivity.At(b.era)
	prep := b.p.Curves.TransitPrependRate.At(b.era)
	for i := 0; i < n; i++ {
		a := &AS{
			ASN: uint32(transitBase + i), Index: i, Tier: TierTransit,
			HasV6:       Unit(b.seed(), 0x76, uint64(i)) < 0.9,
			Selectivity: sel * 2 * Unit(b.seed(), 0x15e1, uint64(i)),
			PrependRate: prep * 2 * Unit(b.seed(), 0x19e9, uint64(i)),
		}
		// Providers: 1–2 from the clique for low indices, from earlier
		// transits otherwise (a deepening hierarchy).
		nProv := 1 + Pick(2, b.seed(), 0x1909, uint64(i))
		for k := 0; k < nProv; k++ {
			var prov *AS
			if i < 6 || Unit(b.seed(), 0x1915, uint64(i), uint64(k)) < 0.5 {
				prov = b.clique[Pick(cliqueSize, b.seed(), 0x1916, uint64(i), uint64(k))]
			} else {
				prov = b.transits[Pick(i, b.seed(), 0x1917, uint64(i), uint64(k))]
			}
			if !hasNeighbor(a, prov) {
				link(prov, a)
			}
		}
		b.transits = append(b.transits, a)
		b.g.ASes = append(b.g.ASes, a)
	}
	// Flattening: pairwise peering with era-growing density.
	density := b.p.Curves.PeeringDensity.At(b.era)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Unit(b.seed(), 0xbee5, uint64(i), uint64(j)) < density {
				if !hasNeighbor(b.transits[i], b.transits[j]) {
					peerLink(b.transits[i], b.transits[j])
				}
			}
		}
	}
}

func hasNeighbor(a, x *AS) bool {
	for _, n := range a.Providers {
		if n == x.ASN {
			return true
		}
	}
	for _, n := range a.Peers {
		if n == x.ASN {
			return true
		}
	}
	for _, n := range a.Customers {
		if n == x.ASN {
			return true
		}
	}
	return a.ASN == x.ASN
}

// originASN maps a creation index to its stable ASN.
func originASN(i int) uint32 {
	if originBase+i < 64500 {
		return uint32(originBase + i)
	}
	return uint32(origin4Byte + (i - (64500 - originBase)))
}

// buildOrigins creates the prefix-originating edge: stubs, content
// networks, and sibling-AS chains. Roles are decided in a pre-pass so a
// chain head claims the following indices as its members.
func (b *builder) buildOrigins() {
	n := scaled(b.p.Curves.OriginASes.At(b.era), b.p.Scale, 60)
	contentShare := b.p.Curves.ContentShare.At(b.era)
	multihomed := b.p.Curves.MultihomedShare.At(b.era)
	chainProb := b.p.Curves.OrgChainProb.At(b.era)
	v6share := b.p.v6ShareAt(b.era)

	// Pre-pass: chain membership. member[i] = head index (or -1).
	member := make([]int, n)
	for i := range member {
		member[i] = -1
	}
	for i := 0; i < n; i++ {
		if member[i] >= 0 {
			continue
		}
		if Unit(b.seed(), 0xc4a1, uint64(i)) < chainProb {
			length := 2 + Pick(5, b.seed(), 0xc4a2, uint64(i)) // 2–6 siblings
			for k := 1; k < length && i+k < n; k++ {
				member[i+k] = i
			}
		}
	}

	b.origins = make([]*AS, n)
	for i := 0; i < n; i++ {
		a := &AS{
			ASN: originASN(i), Index: i,
			HasV6: Unit(b.seed(), 0x0006, uint64(i)) < v6share,
		}
		b.origins[i] = a
		b.g.ASes = append(b.g.ASes, a)

		if head := member[i]; head >= 0 {
			// Sibling chain member: single-homed behind the previous
			// sibling; the whole chain shares the head's org.
			a.Tier = TierStub
			a.Org = originASN(head)
			link(b.origins[i-1], a)
			if b.origins[head].Org == 0 {
				b.origins[head].Org = originASN(head)
			}
			continue
		}

		isContent := Unit(b.seed(), 0xc0e7, uint64(i)) < contentShare
		if isContent {
			a.Tier = TierContent
		} else {
			a.Tier = TierStub
		}

		// Providers among transits (occasionally the clique directly).
		nProv := 1
		if Unit(b.seed(), 0x3017, uint64(i)) < multihomed {
			nProv = 2 + geometric(0.3, 3, b.seed(), 0x3018, uint64(i)) - 1
		}
		for k := 0; k < nProv; k++ {
			var prov *AS
			if Unit(b.seed(), 0x3019, uint64(i), uint64(k)) < 0.06 {
				prov = b.clique[Pick(cliqueSize, b.seed(), 0x301a, uint64(i), uint64(k))]
			} else {
				prov = b.transits[Pick(len(b.transits), b.seed(), 0x301b, uint64(i), uint64(k))]
			}
			if !hasNeighbor(a, prov) {
				link(prov, a)
			}
		}

		// Content networks peer widely (IXP fabric).
		if isContent {
			nPeer := 2 + Pick(7, b.seed(), 0x0eef, uint64(i))
			for k := 0; k < nPeer; k++ {
				t := b.transits[Pick(len(b.transits), b.seed(), 0x0ef0, uint64(i), uint64(k))]
				if !hasNeighbor(a, t) {
					peerLink(a, t)
				}
			}
		}
	}
}

// buildFITI injects the 2021 FITI event: thousands of single-/32 ASes
// behind one research-network transit (§5.1 of the paper).
func (b *builder) buildFITI() {
	n := scaled(b.p.fitiAt(b.era), b.p.Scale, 0)
	if n > 4096 {
		n = 4096 // the /20 holds exactly 4096 /32s
	}
	if n == 0 || len(b.transits) == 0 {
		return
	}
	cernet := b.transits[0]
	cernet.HasV6 = true
	for k := 0; k < n; k++ {
		a := &AS{
			ASN: uint32(fitiBaseASN + k), Index: k, Tier: TierStub,
			Org: cernet.ASN, HasV6: true,
		}
		link(cernet, a)
		b.fiti = append(b.fiti, a)
		b.g.ASes = append(b.g.ASes, a)
	}
}

// v4Prefix returns the prefix at a /24 slot with the given length.
func v4Prefix(slot uint32, bits int) netip.Prefix {
	var addr [4]byte
	binary.BigEndian.PutUint32(addr[:], slot<<8)
	return netip.PrefixFrom(netip.AddrFrom4(addr), bits)
}

// prefixLen samples a v4 prefix length in /21–/24 (fragmentation-heavy).
func prefixLen(seed uint64, asIdx, j int) int {
	switch r := Unit(seed, 0x91e5, uint64(asIdx), uint64(j)); {
	case r < 0.65:
		return 24
	case r < 0.80:
		return 23
	case r < 0.92:
		return 22
	default:
		return 21
	}
}

// assignTransitPrefixes gives core ASes their own small originations.
func (b *builder) assignTransitPrefixes() {
	slot := uint32(transitSlotBase)
	core := append(append([]*AS(nil), b.clique...), b.transits...)
	for ci, a := range core {
		count := 1 + Pick(3, b.seed(), 0x7e1, uint64(a.ASN))
		grp := b.newGroup(a, false)
		for j := 0; j < count; j++ {
			grp.Prefixes = append(grp.Prefixes, v4Prefix(slot, prefixLen(b.seed(), ci+1<<20, j)))
			slot += slotStride
		}
		b.announceAll(a, grp, 0)
		if a.HasV6 {
			g6 := b.newGroup(a, true)
			g6.Prefixes = append(g6.Prefixes, v6ASBlock(0xF00000+uint32(ci)))
			b.announceAll(a, g6, 0)
		}
	}
}

// stratified returns a low-discrepancy uniform in [0,1) for index i: the
// golden-ratio sequence rotated by a seed-dependent offset. Unlike a
// hash draw, any window of consecutive indices matches the target
// distribution almost exactly, so heavy-tailed per-AS size classes keep
// stable means even at small Scale.
func stratified(seed uint64, salt uint64, i int) float64 {
	const phi = 0.6180339887498949
	v := phi*float64(i+1) + Unit(seed, salt)
	return v - math.Floor(v)
}

// logUniform maps v in [0,1) to a log-uniformly distributed integer in
// [lo, hi].
func logUniform(v, lo, hi float64) int {
	return int(lo*math.Pow(hi/lo, v) + 0.5)
}

// effectiveCap shrinks the absolute per-AS prefix cap at small scales:
// a 3,600-prefix AS in a 2,000-prefix world would swamp every statistic.
// At Scale ≥ 0.04 the paper-scale cap applies unchanged (EXPERIMENTS.md
// documents the deviation for smaller runs).
func (b *builder) effectiveCap(capBase float64) float64 {
	eff := capBase * b.p.Scale * 25
	if eff > capBase {
		eff = capBase
	}
	if eff < 60 {
		eff = 60
	}
	return eff
}

// maxPrefixCount is AS i's lifetime-maximum v4 prefix count — a stable
// function of the index, so its address reservation never moves. The
// distribution is stratified (small / middle / large / mega) with
// bounded log-uniform strata, giving both the paper's fat middle (the
// typical multi-atom AS holds ~10–20 prefixes) and stable means at any
// sample size.
func (b *builder) maxPrefixCount(i int) int {
	u := stratified(b.seed(), 0x5a11, i)
	small := b.p.Curves.SmallASShare.V2024
	eff := b.effectiveCap(b.p.Curves.PrefixTailCap.V2024)
	switch {
	case u < small:
		return 1 + int(u/small*2) // 1 or 2
	case u < small+0.50:
		return logUniform((u-small)/0.50, 3, 26)
	case u < 0.998:
		return logUniform((u-small-0.50)/(0.998-small-0.50), 26, 110)
	default:
		f := (u - 0.998) / 0.002
		lo := eff / 3
		return int(lo + f*(eff-lo))
	}
}

// v6ASBlock returns the /32 assigned to v6 entity k: 2a00::/8 space with
// a 24-bit entity number, so 16.7M entities fit without collision.
func v6ASBlock(k uint32) netip.Prefix {
	var a [16]byte
	a[0] = 0x2a
	a[1], a[2], a[3] = byte(k>>16), byte(k>>8), byte(k)
	return netip.PrefixFrom(netip.AddrFrom16(a), 32)
}

// v6Subnet returns /48 subnet j of entity k's /32.
func v6Subnet(k, j uint32) netip.Prefix {
	var a [16]byte
	a[0] = 0x2a
	a[1], a[2], a[3] = byte(k>>16), byte(k>>8), byte(k)
	binary.BigEndian.PutUint16(a[4:6], uint16(j))
	return netip.PrefixFrom(netip.AddrFrom16(a), 48)
}

// fitiPrefix returns /32 number k inside 240a:a000::/20.
func fitiPrefix(k uint32) netip.Prefix {
	var a [16]byte
	a[0], a[1] = 0x24, 0x0a
	// bits 16..20 are 1010 (0xa); bits 20..32 carry k.
	a[2] = 0xa0 | byte(k>>8)
	a[3] = byte(k)
	return netip.PrefixFrom(netip.AddrFrom16(a), 32)
}

// newGroup allocates the next policy group for an AS.
func (b *builder) newGroup(a *AS, v6 bool) *PolicyGroup {
	grp := &PolicyGroup{ID: b.groupID, Origin: a.ASN, V6: v6,
		Announce: make(map[uint32]AnnouncePolicy)}
	b.groupID++
	a.Groups = append(a.Groups, grp)
	return grp
}

// announceAll announces a group to every provider and peer, with an
// optional uniform prepend.
func (b *builder) announceAll(a *AS, grp *PolicyGroup, prepend int) {
	for _, p := range a.Providers {
		grp.Announce[p] = AnnouncePolicy{Prepend: prepend}
	}
	for _, p := range a.Peers {
		grp.Announce[p] = AnnouncePolicy{Prepend: prepend}
	}
}

// assignOriginPrefixes allocates each origin AS's prefixes and carves
// them into policy groups per the era's granularity knobs.
func (b *builder) assignOriginPrefixes() {
	growth := b.p.Curves.PrefixGrowth.At(b.era)
	splitBase := b.p.Curves.SplitProb.At(b.era)
	sameShare := b.p.Curves.SameAnnounceShare.At(b.era)
	prepShare := b.p.Curves.PrependGroupProb.At(b.era)
	v6growth := b.p.Curves.V6PrefixGrowth.At(b.era)
	v6split := b.p.Curves.V6SplitProb.At(b.era)

	slotCursor := uint32(originSlotBase)
	for i, a := range b.origins {
		maxCount := b.maxPrefixCount(i)
		base := slotCursor
		slotCursor += uint32(maxCount * slotStride)

		count := int(float64(maxCount)*growth + 0.5)
		if count < 1 {
			count = 1
		}
		prefixes := make([]netip.Prefix, count)
		for j := 0; j < count; j++ {
			prefixes[j] = v4Prefix(base+uint32(j*slotStride), prefixLen(b.seed(), i, j))
		}
		split := splitBase * 2 * Unit(b.seed(), 0x5711, uint64(i))
		if len(a.Providers) < 2 {
			// Single-homed origins have little to differentiate: only
			// prepending distinguishes their announcements.
			split *= 0.15
		}
		if split > 0.95 {
			split = 0.95
		}
		b.buildGroups(a, i, prefixes, false, split, sameShare, prepShare)

		if a.HasV6 {
			v6max := b.v6MaxPrefixCount(i)
			v6count := int(float64(v6max)*v6growth + 0.5)
			if v6count < 1 {
				v6count = 1
			}
			if v6count > 65000 {
				v6count = 65000
			}
			v6prefixes := make([]netip.Prefix, v6count)
			for j := 0; j < v6count; j++ {
				if j == 0 {
					v6prefixes[j] = v6ASBlock(uint32(i))
				} else {
					v6prefixes[j] = v6Subnet(uint32(i), uint32(j))
				}
			}
			split6 := v6split * 2 * Unit(b.seed(), 0x5716, uint64(i))
			if split6 > 0.95 {
				split6 = 0.95
			}
			b.buildGroups(a, i+1<<24, v6prefixes, true, split6, sameShare, prepShare)
		}
	}

	// FITI ASes: one /32 each, one group.
	for k, a := range b.fiti {
		grp := b.newGroup(a, true)
		grp.Prefixes = append(grp.Prefixes, fitiPrefix(uint32(k)))
		b.announceAll(a, grp, 0)
	}
}

// v6MaxPrefixCount mirrors maxPrefixCount for the v6 plane (smaller).
func (b *builder) v6MaxPrefixCount(i int) int {
	const small = 0.55
	u := stratified(b.seed(), 0x6a11, i)
	eff := b.effectiveCap(2400)
	switch {
	case u < small:
		return 1 + int(u/small*2)
	case u < 0.93:
		return logUniform((u-small)/(0.93-small), 3, 14)
	case u < 0.999:
		return logUniform((u-0.93)/(0.999-0.93), 14, 60)
	default:
		f := (u - 0.999) / 0.001
		lo := eff / 3
		return int(lo + f*(eff-lo))
	}
}

// buildGroups partitions prefixes into policy groups and assigns each
// group an announce policy. The first group announces everywhere; later
// groups either reuse the previous announce set (distinguishable only by
// transit policy), differ only in prepending, or select a proper subset
// of providers (origin-level selective announce → distance-2 splits).
func (b *builder) buildGroups(a *AS, salt int, prefixes []netip.Prefix, v6 bool, split, sameShare, prepShare float64) {
	grp := b.newGroup(a, v6)
	b.announceAll(a, grp, 0)
	// Background prepending on the primary group.
	if len(a.Providers) > 1 && Unit(b.seed(), 0x9a01, uint64(salt)) < 0.10 {
		target := a.Providers[Pick(len(a.Providers), b.seed(), 0x9a02, uint64(salt))]
		grp.Announce[target] = AnnouncePolicy{Prepend: 1 + Pick(3, b.seed(), 0x9a03, uint64(salt))}
	}
	groups := []*PolicyGroup{grp}
	grp.Prefixes = append(grp.Prefixes, prefixes[0])

	for j := 1; j < len(prefixes); j++ {
		if Unit(b.seed(), 0x9b01, uint64(salt), uint64(j)) < split {
			ng := b.newGroup(a, v6)
			b.assignAnnounce(a, ng, groups[len(groups)-1], salt, j, sameShare, prepShare)
			groups = append(groups, ng)
			ng.Prefixes = append(ng.Prefixes, prefixes[j])
			continue
		}
		// Join an existing group, biased toward the first (big atoms).
		r := Unit(b.seed(), 0x9b02, uint64(salt), uint64(j))
		gi := int(float64(len(groups)) * r * r)
		if gi >= len(groups) {
			gi = len(groups) - 1
		}
		groups[gi].Prefixes = append(groups[gi].Prefixes, prefixes[j])
	}
}

// assignAnnounce gives a non-primary group its announce policy. Three
// regimes, matching the paper's distance-1/2/3 mechanisms:
//
//   - same announce set as the previous group: only transit policy can
//     distinguish the atoms (distance ≥3 when it does; merged when not);
//   - same set, different origin prepending: a distance-1 split;
//   - a proper subset of the providers: origin selective announce, a
//     distance-2 split.
//
// Single-homed origins cannot selectively announce (Kastanakis et al.'s
// observation), so their "selective" draw becomes a prepend variation.
func (b *builder) assignAnnounce(a *AS, ng, prev *PolicyGroup, salt, j int, sameShare, prepShare float64) {
	r := Unit(b.seed(), 0x9c01, uint64(salt), uint64(j))
	copyPrev := func() {
		for n, pol := range prev.Announce {
			ng.Announce[n] = pol
		}
	}
	prependVariation := func() {
		copyPrev()
		neighbors := announceKeys(prev)
		if len(neighbors) > 0 {
			t := neighbors[Pick(len(neighbors), b.seed(), 0x9c02, uint64(salt), uint64(j))]
			// Vary the prepend count but keep it bounded (real-world
			// prepending rarely exceeds a handful): cycle within 0..6,
			// always different from the previous group's value.
			next := (prev.Announce[t].Prepend + 1 + Pick(2, b.seed(), 0x9c03, uint64(salt), uint64(j))) % 7
			ng.Announce[t] = AnnouncePolicy{Prepend: next}
		}
	}
	switch {
	case r < sameShare:
		copyPrev()
	case r < sameShare+prepShare || len(a.Providers) < 2:
		prependVariation()
	default:
		// A proper, non-empty subset of providers: exclude one provider
		// by hash, include the rest with high probability.
		excluded := Pick(len(a.Providers), b.seed(), 0x9c04, uint64(salt), uint64(j))
		for k, p := range a.Providers {
			if k == excluded {
				continue
			}
			if len(ng.Announce) == 0 || Unit(b.seed(), 0x9c05, uint64(salt), uint64(j), uint64(k)) < 0.8 {
				ng.Announce[p] = AnnouncePolicy{}
			}
		}
		if len(ng.Announce) == 0 {
			// All but the excluded one dropped out: announce to one.
			keep := (excluded + 1) % len(a.Providers)
			ng.Announce[a.Providers[keep]] = AnnouncePolicy{}
		}
		// Peers join regionally.
		for k, p := range a.Peers {
			if Unit(b.seed(), 0x9c06, uint64(salt), uint64(j), uint64(k)) < 0.5 {
				ng.Announce[p] = AnnouncePolicy{}
			}
		}
		// Occasional prepending on the subset too.
		for _, n := range announceKeys(ng) {
			if Unit(b.seed(), 0x9c08, uint64(salt), uint64(j), uint64(n)) < 0.08 {
				ng.Announce[n] = AnnouncePolicy{Prepend: 1 + Pick(2, b.seed(), 0x9c09, uint64(salt), uint64(j), uint64(n))}
			}
		}
	}
}

func announceKeys(g *PolicyGroup) []uint32 {
	out := make([]uint32, 0, len(g.Announce))
	for n := range g.Announce {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// moasPass duplicates a small share of prefixes into a second origin's
// primary group, producing MOAS prefixes (kept under the paper's 5%).
func (b *builder) moasPass() {
	share := b.p.Curves.MOASShare.At(b.era)
	if share <= 0 || len(b.origins) < 2 {
		return
	}
	for i, a := range b.origins {
		for _, grp := range a.Groups {
			if grp.V6 {
				continue
			}
			for pi, pfx := range grp.Prefixes {
				if Unit(b.seed(), 0x30a5, uint64(grp.ID), uint64(pi)) >= share {
					continue
				}
				oi := Pick(len(b.origins), b.seed(), 0x30a6, uint64(i), uint64(pi))
				other := b.origins[oi]
				if other.ASN == a.ASN || len(other.Groups) == 0 {
					continue
				}
				og := other.Groups[0]
				if og.V6 {
					continue
				}
				og.Prefixes = append(og.Prefixes, pfx)
			}
		}
	}
}

// collectGroups gathers all groups into the graph, ID-ordered, and
// assigns policy-signature IDs: same origin + identical announce map.
func (b *builder) collectGroups() {
	b.g.Groups = make([]*PolicyGroup, b.groupID)
	sigOf := map[string]int{}
	for _, a := range b.g.ASes {
		for _, grp := range a.Groups {
			b.g.Groups[grp.ID] = grp
			key := announceSignature(grp)
			id, ok := sigOf[key]
			if !ok {
				id = len(sigOf)
				sigOf[key] = id
			}
			grp.SigID = id
		}
	}
}

// announceSignature canonically encodes (origin, family, announce map).
func announceSignature(grp *PolicyGroup) string {
	keys := announceKeys(grp)
	buf := make([]byte, 0, 10+8*len(keys))
	buf = binary.BigEndian.AppendUint32(buf, grp.Origin)
	if grp.V6 {
		buf = append(buf, 6)
	} else {
		buf = append(buf, 4)
	}
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint32(buf, k)
		buf = binary.BigEndian.AppendUint32(buf, uint32(grp.Announce[k].Prepend))
	}
	return string(buf)
}
