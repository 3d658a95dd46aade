// Package collector simulates the RIPE RIS / RouteViews collection
// infrastructure over a topology.Graph: collectors with full- and
// partial-feed peers, MRT RIB snapshot dumps, BGP4MP update streams
// driven by the routing churn model, and deliberate artifact injection —
// ADD-PATH encoding mismatches, a private-ASN-prepending misconfigured
// peer, duplicate-route peers, stuck (stale) feeds, and ghost prefixes —
// the exact data defects the paper's sanitization pipeline (§2.4, §A8.3)
// exists to remove.
package collector

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"sort"

	"repro/internal/topology"
)

// Artifact marks a deliberate defect in a peer's feed.
type Artifact uint8

// Artifact kinds.
const (
	ArtifactNone Artifact = iota
	// ArtifactAddPath: the peer negotiates ADD-PATH but the collector
	// records its updates under a non-ADD-PATH subtype (§A8.3.1).
	ArtifactAddPath
	// ArtifactPrivateASN: the peer inserts a private ASN (65000) after
	// its own ASN in every path (§A8.3.2).
	ArtifactPrivateASN
	// ArtifactDuplicates: the peer sends >10% of its prefixes twice.
	ArtifactDuplicates
	// ArtifactStuck: the peer's RIB is stale — it ignores churn.
	ArtifactStuck
)

// String names the artifact.
func (a Artifact) String() string {
	switch a {
	case ArtifactNone:
		return "none"
	case ArtifactAddPath:
		return "addpath"
	case ArtifactPrivateASN:
		return "private-asn"
	case ArtifactDuplicates:
		return "duplicates"
	case ArtifactStuck:
		return "stuck"
	default:
		return "unknown"
	}
}

// Peer is one BGP feed into a collector.
type Peer struct {
	ASN      uint32
	Addr     netip.Addr
	FullFeed bool
	// PartialShare is the fraction of prefixes a partial feed carries.
	PartialShare float64
	// GhostShare is the fraction of fabricated, highly local prefixes a
	// partial feed adds (visible only here).
	GhostShare float64
	Artifact   Artifact
}

// Collector is one RIS/RouteViews-style collector.
type Collector struct {
	Name  string
	ID    netip.Addr
	Peers []*Peer
}

// Infra is the collection infrastructure for one era.
type Infra struct {
	Era        topology.Era
	Seed       uint64
	Collectors []*Collector
}

// AllPeers returns every (collector, peer) pairing.
func (in *Infra) AllPeers() []struct {
	Collector *Collector
	Peer      *Peer
} {
	var out []struct {
		Collector *Collector
		Peer      *Peer
	}
	for _, c := range in.Collectors {
		for _, p := range c.Peers {
			out = append(out, struct {
				Collector *Collector
				Peer      *Peer
			}{c, p})
		}
	}
	return out
}

// FullFeedASNs returns the distinct ASNs of full-feed peers.
func (in *Infra) FullFeedASNs() []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, c := range in.Collectors {
		for _, p := range c.Peers {
			if p.FullFeed && !seen[p.ASN] {
				seen[p.ASN] = true
				out = append(out, p.ASN)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Config controls infrastructure construction.
type Config struct {
	Seed uint64
	// VPScale scales paper-scale peer counts; zero defaults to
	// sqrt(topology scale) chosen by the caller.
	VPScale float64
	// ForceCollectors pins the collector count (0 = era default). The
	// 2002 reproduction uses 1 collector ("rrc00") with 13 full feeds.
	ForceCollectors int
	// ForceFullFeeds pins the full-feed peer count (0 = era default).
	ForceFullFeeds int
	// Artifacts enables defect injection (on for the longitudinal study,
	// off for the clean 2002 reproduction).
	Artifacts bool
}

// peer-count curves at paper scale.
var (
	fullFeedCurve = topology.Curve{V2002: 13, V2004: 45, V2024: 600}
	partialCurve  = topology.Curve{V2002: 0, V2004: 5, V2024: 500}
)

// BuildInfra selects peers from the graph and wires them to collectors.
// Peer identity is stable: as eras advance, the peer set grows without
// reshuffling earlier members.
func BuildInfra(g *topology.Graph, cfg Config) *Infra {
	in := &Infra{Era: g.Era, Seed: cfg.Seed}
	vpScale := cfg.VPScale
	if vpScale <= 0 {
		vpScale = math.Sqrt(g.Params.Scale)
	}

	nFull := cfg.ForceFullFeeds
	if nFull == 0 {
		nFull = int(fullFeedCurve.At(g.Era)*vpScale + 0.5)
		if nFull < 8 {
			nFull = 8
		}
	}
	nPartial := 0
	if cfg.ForceFullFeeds == 0 {
		nPartial = int(partialCurve.At(g.Era)*vpScale + 0.5)
	}

	candidates := peerCandidates(g, cfg.Seed)
	if nFull > len(candidates) {
		nFull = len(candidates)
	}
	if nFull+nPartial > len(candidates) {
		nPartial = len(candidates) - nFull
	}

	nColl := cfg.ForceCollectors
	if nColl == 0 {
		nColl = nFull/12 + 2
	}
	for i := 0; i < nColl; i++ {
		name := fmt.Sprintf("rrc%02d", i)
		if i%2 == 1 {
			name = fmt.Sprintf("route-views%d", i/2+2)
		}
		in.Collectors = append(in.Collectors, &Collector{
			Name: name,
			ID:   netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}),
		})
	}

	assign := func(idx int, p *Peer) {
		primary := topology.ChainPick(nColl, cfg.Seed, 0xa110, uint64(p.ASN))
		in.Collectors[primary].Peers = append(in.Collectors[primary].Peers, p)
		if nColl > 1 && topology.ChainUnit(cfg.Seed, 0xa111, uint64(p.ASN)) < 0.3 {
			secondary := (primary + 1 + topology.ChainPick(nColl-1, cfg.Seed, 0xa112, uint64(p.ASN))) % nColl
			in.Collectors[secondary].Peers = append(in.Collectors[secondary].Peers, p)
		}
		_ = idx
	}

	for k := 0; k < nFull; k++ {
		asn := candidates[k]
		p := &Peer{ASN: asn, Addr: peerAddr(asn), FullFeed: true}
		if cfg.Artifacts {
			p.Artifact = artifactFor(cfg.Seed, asn, g.Era)
		}
		assign(k, p)
	}
	for k := 0; k < nPartial; k++ {
		asn := candidates[nFull+k]
		p := &Peer{
			ASN: asn, Addr: peerAddr(asn),
			PartialShare: 0.03 + 0.5*topology.ChainUnit(cfg.Seed, 0xa113, uint64(asn)),
			GhostShare:   0.01,
		}
		assign(nFull+k, p)
	}
	// Drop empty collectors (possible at tiny scales).
	var keep []*Collector
	for _, c := range in.Collectors {
		if len(c.Peers) > 0 {
			keep = append(keep, c)
		}
	}
	in.Collectors = keep
	return in
}

// artifactFor assigns defects to a small, era-gated set of peers.
func artifactFor(seed uint64, asn uint32, era topology.Era) Artifact {
	r := topology.ChainUnit(seed, 0xa114, uint64(asn))
	switch {
	case era >= topology.EraOf(2020, 1) && r < 0.03:
		return ArtifactAddPath
	case era >= topology.EraOf(2020, 1) && r < 0.04:
		return ArtifactPrivateASN
	case r < 0.055:
		return ArtifactDuplicates
	case r < 0.065:
		return ArtifactStuck
	default:
		return ArtifactNone
	}
}

// peerCandidates orders potential vantage-point ASes: transits and
// clique first (real full feeds are big ISPs), then content, then a few
// stubs — shuffled deterministically within classes so growth adds
// varied peers.
func peerCandidates(g *topology.Graph, seed uint64) []uint32 {
	var core, content, stubs []uint32
	for _, a := range g.ASes {
		switch a.Tier {
		case topology.TierClique, topology.TierTransit:
			core = append(core, a.ASN)
		case topology.TierContent:
			content = append(content, a.ASN)
		default:
			if topology.ChainUnit(seed, 0xa115, uint64(a.ASN)) < 0.05 {
				stubs = append(stubs, a.ASN)
			}
		}
	}
	shuffle := func(s []uint32, salt uint64) {
		sort.Slice(s, func(i, j int) bool {
			return topology.Chain64(seed, salt, uint64(s[i])) < topology.Chain64(seed, salt, uint64(s[j]))
		})
	}
	shuffle(core, 0xa116)
	shuffle(content, 0xa117)
	shuffle(stubs, 0xa118)
	out := append(core, content...)
	return append(out, stubs...)
}

// peerAddr derives a unique, stable peer address.
func peerAddr(asn uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], 0xAC100000|asn&0x000FFFFF) // 172.16.0.0/12 pool
	return netip.AddrFrom4(b)
}

// EpochOf maps an era to a synthetic Unix timestamp for its first
// snapshot (the 15th of the quarter's first month, 8:00 UTC — shape
// only; absolute values are arbitrary but monotone and deterministic).
func EpochOf(era topology.Era) uint32 {
	// 90 days per quarter from a 2002Q1 base.
	base := int64(1009843200) // 2002-01-01
	return uint32(base + (int64(era)+8)*90*86400 + 14*86400 + 8*3600)
}
