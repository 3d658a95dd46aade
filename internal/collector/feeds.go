package collector

import (
	"slices"

	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/prefixset"
	"repro/internal/routing"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// BuildFeeds computes every peer feed's routing table in memory — the
// longitudinal fast path. It produces the same logical content as
// BuildRIBs → MRT → bgpstream → sanitize ingestion, skipping the wire
// round-trip: partial-feed subsetting, ghost prefixes, private-ASN
// insertion, duplicate counting, and stale stuck feeds are all applied
// identically (the same hash decisions), so sanitize.CleanFeeds yields
// the same snapshot either way. TestFastPathEquivalence holds the two
// paths together. Every path is interned into table: once per (unit,
// VP) route, once per rewritten private-ASN path, once per ghost.
//
// The ADD-PATH artifact has no feed-level representation (it is a wire
// encoding defect); its detection signal travels via update-stream
// warnings in both paths.
func BuildFeeds(g *topology.Graph, in *Infra, ov *routing.Overlay, ts uint32, table *aspath.Table) *sanitize.FeedSet {
	t := buildRouteTable(g, in, ov, table)
	var peers []*Peer
	var feeds []sanitize.FeedInfo
	for _, c := range in.Collectors {
		for _, p := range c.Peers {
			peers = append(peers, p)
			feeds = append(feeds, sanitize.FeedInfo{VP: core.VP{Collector: c.Name, ASN: p.ASN}})
		}
	}

	// Ghost prefixes: fabricated, visible only at their peer. They join
	// the route table's prefixes in the feed set's prefix union (the
	// clip makes the first append copy), and a ghost that lands on a
	// routed prefix replaces that route.
	union := slices.Clip(t.prefixes)
	for _, p := range peers {
		for j := range ghostCount(p, t.routed) {
			union = append(union, ghostPrefix(p.ASN, j))
		}
	}
	if len(union) > len(t.prefixes) {
		prefixset.SortPrefixes(union)
		union = slices.Clip(slices.Compact(union))
	}

	fs := sanitize.NewFeedSet(ts, table, union, feeds)
	cols := make([]int, len(peers))
	for f, p := range peers {
		cols[f] = t.cols[p.ASN]
	}
	// A private-ASN peer's rewrite depends on the path alone, so each
	// distinct path is rewritten and interned once.
	private := map[aspath.ID]aspath.ID{}
	var buf aspath.Seq
	ti := 0
	for r, pfx := range fs.Prefixes {
		if ti == len(t.prefixes) || t.prefixes[ti] != pfx {
			continue // a ghost-only row
		}
		src, dst := t.row(ti), fs.Row(r)
		ti++
		label := prefixLabel(pfx)
		for f, p := range peers {
			id := src[cols[f]].id
			if id == aspath.Empty || !carries(in, p, label) {
				continue
			}
			if p.Artifact == ArtifactPrivateASN {
				pid, ok := private[id]
				if !ok {
					buf = withPrivateASN(buf[:0], table.Seq(id))
					pid = table.Intern(buf)
					private[id] = pid
				}
				id = pid
			}
			dst[f] = id
			if duplicated(in, p, label) {
				fs.Feeds[f].Duplicates++
			}
		}
	}
	for f, p := range peers {
		for j := range ghostCount(p, t.routed) {
			r, _ := slices.BinarySearchFunc(fs.Prefixes, ghostPrefix(p.ASN, j), prefixset.ComparePrefixes)
			fs.Row(r)[f] = table.Intern(ghostPath(in, p, j))
		}
	}
	return fs
}
