package topology

import (
	"cmp"
	"net/netip"
	"slices"
)

// Tier classifies an AS's role in the hierarchy.
type Tier uint8

// Tiers. Clique ASes form the fully-meshed top (Tier 1); Transit ASes
// sell transit below them; Content ASes originate prefixes and peer
// widely (the "flattening" actors); Stub ASes only originate.
const (
	TierClique Tier = iota + 1
	TierTransit
	TierContent
	TierStub
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierClique:
		return "clique"
	case TierTransit:
		return "transit"
	case TierContent:
		return "content"
	case TierStub:
		return "stub"
	default:
		return "unknown"
	}
}

// AS is one autonomous system and its policy disposition.
type AS struct {
	ASN   uint32
	Index int // creation index within its tier
	Tier  Tier
	// Org groups sibling ASes run by one organization (0 = standalone).
	Org uint32

	Providers []uint32
	Peers     []uint32
	Customers []uint32

	// HasV6 marks IPv6 participation in the graph's era.
	HasV6 bool

	// Selectivity is the probability that this AS, acting as transit,
	// silently does not export a given routing unit to a given neighbor
	// (selective export, the paper's §4.3 mechanism for distance-3+
	// atom splits). Evaluated per (unit, neighbor) by ExportHash.Exports.
	Selectivity float64
	// PrependRate is the probability that this AS prepends itself when
	// exporting a given unit to a given neighbor.
	PrependRate float64

	// Groups are the routing units (policy groups) this AS originates.
	Groups []*PolicyGroup
}

// AnnouncePolicy is the origin's export behavior for one neighbor.
type AnnouncePolicy struct {
	// Prepend is the number of extra copies of the origin ASN prepended
	// when announcing to this neighbor (0 = plain announcement).
	Prepend int
}

// PolicyGroup is a routing unit: a set of prefixes that the origin AS
// treats identically — announced to the same neighbors with the same
// prepending. Policy atoms are *observed* groups; a PolicyGroup is the
// generative intent. Atoms and groups coincide except when transit
// policies split a group's observed paths or two groups collapse to
// identical paths everywhere.
type PolicyGroup struct {
	ID     int // globally unique, dense
	Origin uint32
	V6     bool
	// SigID identifies the group's policy signature: groups of the same
	// origin with identical announce policies share a SigID. Signature
	// peers are one *configured* policy that the generator split only so
	// transit-level hashing can diverge them; churn treats a signature
	// as one unit of change (identically-configured prefixes change
	// together), which is what makes observationally-merged atoms
	// co-update in the wire stream.
	SigID int
	// Prefixes originated in this group.
	Prefixes []netip.Prefix
	// Announce maps a neighbor ASN of the origin to the export policy;
	// neighbors absent from the map do not receive this unit.
	Announce map[uint32]AnnouncePolicy
}

// Graph is the generated Internet at one era.
type Graph struct {
	Era    Era
	Seed   uint64
	Params Params

	ASes   []*AS          // ascending ASN
	Groups []*PolicyGroup // all units, ID-indexed

	// Index maps an ASN to its position in ASes.
	Index map[uint32]int32
	// ProvOff/ProvIdx and PeerOff/PeerIdx hold every AS's providers and
	// peers by position in ASes, in compressed-sparse-row form: the
	// providers of AS i are ProvIdx[ProvOff[i]:ProvOff[i+1]], in ASN
	// order, with ASNs outside the graph dropped.
	ProvOff, ProvIdx []int32
	PeerOff, PeerIdx []int32
	// Hash holds every AS's export hash staged past its ASN, by
	// position (see ExportHash).
	Hash []ExportHash

	// CliqueASNs lists the Tier-1 mesh.
	CliqueASNs []uint32
}

// AS returns the AS with the given ASN, or nil.
func (g *Graph) AS(asn uint32) *AS {
	if i, ok := g.Index[asn]; ok {
		return g.ASes[i]
	}
	return nil
}

// ProvidersOf returns the positions of AS i's providers.
func (g *Graph) ProvidersOf(i int32) []int32 { return g.ProvIdx[g.ProvOff[i]:g.ProvOff[i+1]] }

// PeersOf returns the positions of AS i's peers.
func (g *Graph) PeersOf(i int32) []int32 { return g.PeerIdx[g.PeerOff[i]:g.PeerOff[i+1]] }

// NumASes returns the total AS count (including non-originating core).
func (g *Graph) NumASes() int { return len(g.ASes) }

// OriginASes returns all ASes that originate at least one group, in
// ascending ASN order.
func (g *Graph) OriginASes() []*AS {
	var out []*AS
	for _, a := range g.ASes {
		if len(a.Groups) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// TotalPrefixes counts originated prefixes (v4 + v6).
func (g *Graph) TotalPrefixes() (v4, v6 int) {
	for _, u := range g.Groups {
		if u.V6 {
			v6 += len(u.Prefixes)
		} else {
			v4 += len(u.Prefixes)
		}
	}
	return
}

// Tags of the three transit-export draws.
const (
	tagSelect  = 0x5e1ec // selective export toward a peer
	tagPrepend = 0x93e9d // whether to prepend
	tagPick    = 0x93e9e // how many extra prepends
)

// ExportHash is one AS's transit-export hash staged past the labels its
// draws share: for each of the three draws, the splitmix state after
// (seed, tag, ASN). ForUnit advances it by a unit ID, after which a draw
// toward one neighbor costs one mix instead of five.
type ExportHash struct{ sel, prep, pick uint64 }

func stageExportHash(seed uint64, asn uint32) ExportHash {
	return ExportHash{
		sel:  h64(seed, tagSelect, uint64(asn)),
		prep: h64(seed, tagPrepend, uint64(asn)),
		pick: h64(seed, tagPick, uint64(asn)),
	}
}

// ForUnit advances the staged hash by a unit ID.
func (h ExportHash) ForUnit(unitID int) ExportHash {
	u := uint64(unitID)
	return ExportHash{sel: mix64(h.sel ^ u), prep: mix64(h.prep ^ u), pick: mix64(h.pick ^ u)}
}

// Exports decides whether AS from, whose staged hash advanced to a unit
// is h, exports that unit to neighbor `to` (toPeer: to is one of from's
// peers), and with how many extra prepends of from's own ASN. It is the
// deterministic transit-policy hash: stable across snapshots unless a
// churn overlay overrides it.
//
// Selective export only filters toward peers: customer routes are
// revenue and always propagate to providers and customers, while
// per-peer export policy ("do not announce in region X") is the classic
// selective-export mechanism Kastanakis et al. document. Filtering the
// peer crossings diversifies upper paths — the paper's distance-3 atom
// splits — without making prefixes globally invisible.
func (h ExportHash) Exports(from *AS, to uint32, toPeer bool) (ok bool, prepend int) {
	if toPeer && from.Selectivity > 0 && toUnit(mix64(h.sel^uint64(to))) < from.Selectivity {
		return false, 0
	}
	if from.PrependRate > 0 && toUnit(mix64(h.prep^uint64(to))) < from.PrependRate {
		prepend = 1 + int(mix64(h.pick^uint64(to))%2)
	}
	return true, prepend
}

// NewGraph assembles a graph from explicit ASes and groups — for tests
// and custom scenarios. Customer lists are derived from the Providers
// lists (any pre-set Customers are discarded), peer lists must already
// be symmetric, and groups must be densely ID-numbered from 0.
func NewGraph(era Era, seed uint64, ases []*AS, groups []*PolicyGroup) *Graph {
	g := &Graph{Era: era, Seed: seed, ASes: ases, Groups: groups}
	byASN := make(map[uint32]*AS, len(ases))
	for _, a := range ases {
		a.Customers = nil
		byASN[a.ASN] = a
	}
	for _, a := range ases {
		for _, p := range a.Providers {
			if prov := byASN[p]; prov != nil {
				prov.Customers = append(prov.Customers, a.ASN)
			}
		}
	}
	g.finish()
	return g
}

// link records a provider-customer relationship on both ends.
func link(provider, customer *AS) {
	provider.Customers = append(provider.Customers, customer.ASN)
	customer.Providers = append(customer.Providers, provider.ASN)
}

// peerLink records a peering on both ends.
func peerLink(a, b *AS) {
	a.Peers = append(a.Peers, b.ASN)
	b.Peers = append(b.Peers, a.ASN)
}

// finish sorts adjacency lists and indexes the graph: the ASN index,
// the position-based adjacency and the staged export hashes.
func (g *Graph) finish() {
	slices.SortFunc(g.ASes, func(a, b *AS) int { return cmp.Compare(a.ASN, b.ASN) })
	g.Index = make(map[uint32]int32, len(g.ASes))
	g.Hash = make([]ExportHash, len(g.ASes))
	for i, a := range g.ASes {
		slices.Sort(a.Providers)
		slices.Sort(a.Peers)
		slices.Sort(a.Customers)
		g.Index[a.ASN] = int32(i)
		g.Hash[i] = stageExportHash(g.Seed, a.ASN)
	}
	g.ProvOff, g.ProvIdx = g.adjacency(func(a *AS) []uint32 { return a.Providers })
	g.PeerOff, g.PeerIdx = g.adjacency(func(a *AS) []uint32 { return a.Peers })
}

// adjacency lays out one neighbor list of every AS by position. A
// counting pass sizes the index array, so it is allocated once.
func (g *Graph) adjacency(list func(*AS) []uint32) (off, idx []int32) {
	n := 0
	for _, a := range g.ASes {
		n += len(list(a))
	}
	off = make([]int32, len(g.ASes)+1)
	idx = make([]int32, 0, n)
	for i, a := range g.ASes {
		for _, asn := range list(a) {
			if j, ok := g.Index[asn]; ok {
				idx = append(idx, j)
			}
		}
		off[i+1] = int32(len(idx))
	}
	return off, idx
}
