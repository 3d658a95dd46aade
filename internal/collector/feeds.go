package collector

import (
	"slices"

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
// paths together.
//
// The ADD-PATH artifact has no feed-level representation (it is a wire
// encoding defect); its detection signal travels via update-stream
// warnings in both paths.
func BuildFeeds(g *topology.Graph, in *Infra, ov *routing.Overlay, ts uint32) []*sanitize.Feed {
	t := buildRouteTable(g, in, ov)
	var feeds []*sanitize.Feed
	var scratch, ghosts []sanitize.Route
	for _, c := range in.Collectors {
		for _, p := range c.Peers {
			f := &sanitize.Feed{VP: core.VP{Collector: c.Name, ASN: p.ASN}, Time: ts}
			col := t.cols[p.ASN]
			scratch = scratch[:0]
			for pi, pfx := range t.prefixes {
				path := peerPath(in, p, pfx, t.row(pi)[col].path)
				if path == nil {
					continue
				}
				scratch = append(scratch, sanitize.Route{Prefix: pfx, Path: path})
				if duplicated(in, p, pfx) {
					f.Duplicates++
				}
			}
			ghosts = ghosts[:0]
			for j := range ghostCount(p, t.routed) {
				ghosts = append(ghosts, sanitize.Route{Prefix: ghostPrefix(p.ASN, j), Path: ghostPath(in, p, j)})
			}
			f.Routes = mergeGhosts(scratch, ghosts)
			feeds = append(feeds, f)
		}
	}
	return feeds
}

// mergeGhosts returns a right-sized copy of the sorted routes with the
// ghost routes merged in, keeping the result strictly ascending: a ghost
// that lands on a routed prefix replaces that route.
func mergeGhosts(routes, ghosts []sanitize.Route) []sanitize.Route {
	slices.SortFunc(ghosts, func(a, b sanitize.Route) int {
		return prefixset.ComparePrefixes(a.Prefix, b.Prefix)
	})
	out := make([]sanitize.Route, 0, len(routes)+len(ghosts))
	i, j := 0, 0
	for i < len(routes) && j < len(ghosts) {
		switch c := prefixset.ComparePrefixes(routes[i].Prefix, ghosts[j].Prefix); {
		case c < 0:
			out = append(out, routes[i])
			i++
		case c > 0:
			out = append(out, ghosts[j])
			j++
		default:
			out = append(out, ghosts[j])
			i++
			j++
		}
	}
	out = append(out, routes[i:]...)
	return append(out, ghosts[j:]...)
}
