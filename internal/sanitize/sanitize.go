// Package sanitize implements the paper's data-cleaning methodology
// (§2.4, §A8.3): full-feed peer inference, abnormal-peer removal
// (ADD-PATH parse trouble, private-ASN insertion, excessive duplicates),
// AS-SET handling, prefix-length admission, and the two-threshold
// visibility filter (≥ MinCollectors collectors, ≥ MinPeerASes peer
// ASes). Its output is the core.Snapshot that atom computation consumes,
// plus a Report documenting everything that was removed and why.
package sanitize

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/prefixset"
)

// Options tunes the pipeline. ZeroOptions (all zero values) is invalid;
// start from Defaults.
type Options struct {
	// FullFeedFraction: a feed is full if its unique prefix count
	// exceeds this fraction of the maximum across feeds (§2.4.2).
	FullFeedFraction float64
	// MinCollectors / MinPeerASes are the visibility thresholds
	// (§2.4.3; Table 7 sweeps them).
	MinCollectors int
	MinPeerASes   int
	// LengthFilter admits only prefixes ≤ /24 (v4) or ≤ /48 (v6).
	LengthFilter bool
	// MaxParseWarnings: a peer AS accumulating more update-stream parse
	// warnings than this is removed (ADD-PATH damage, §A8.3.1).
	MaxParseWarnings int
	// PrivateASNShare: a peer AS whose paths carry a private ASN for
	// more than this share of its prefixes is removed (§A8.3.2).
	PrivateASNShare float64
	// DuplicateShare: a peer AS sending more than this share of its
	// prefixes in duplicate is removed (§2.4.4).
	DuplicateShare float64
	// MaxSessionFlaps: a peer AS whose BGP sessions flapped more than
	// this many times across the update window is removed — a flapping
	// session's RIB rows are stale snapshots of an unstable view. The
	// counts come from SessionFlaps. 0 disables the filter.
	MaxSessionFlaps int
	// SessionFlaps carries per-peer-ASN state-change counts observed on
	// the update streams (bgpstream.Stream.StateFlaps).
	SessionFlaps map[uint32]int
	// QuarantinedCollectors names feeds excluded wholesale before any
	// other stage — sources whose degradation budget was blown
	// (bgpstream.Stream.Quarantined). Clean merges its own RIB-stream
	// quarantine into this set.
	QuarantinedCollectors map[string]bool
	// DegradationMinRecords / DegradationMaxSkipRatio configure the RIB
	// stream's per-source degradation budget inside Clean. Zero values
	// keep bgpstream's defaults; a negative DegradationMinRecords
	// disables quarantine.
	DegradationMinRecords   int
	DegradationMaxSkipRatio float64
	// KeepAllPrefixes reproduces Afek et al.'s 2002 methodology:
	// no visibility thresholds, no length filter.
	KeepAllPrefixes bool
	// Family restricts the snapshot to one address family: 0 = both,
	// 4 = IPv4 only, 6 = IPv6 only. Atoms are computed per family, and
	// full-feed inference runs within the family's own table sizes.
	Family int
	// Workers bounds the worker pool for the parallel pipeline stages
	// (per-source MRT decode fan-out, per-feed path interning, snapshot
	// assembly): 0 = one worker per CPU, 1 = fully sequential. Output is
	// identical at any value.
	Workers int
	// Intern, when non-nil, is the AS-path intern table the pipeline
	// uses instead of building a fresh one. Sharing one table across the
	// snapshots of an era (longitudinal does this) means the second and
	// later snapshots intern almost entirely on the allocation-free hit
	// path. IDs are only meaningful within one table, so callers must
	// scope a shared table to consumers that never compare IDs across
	// unrelated snapshots — the repo-wide invariant since PR2 is that
	// outputs depend on ID equality only.
	Intern *aspath.Table

	// Span, when non-nil, receives child spans for each pipeline stage
	// (ingest, intern, abnormal peers, full-feed inference, admission,
	// assembly). Nil disables stage tracing at no cost.
	Span *obs.Span
	// Metrics, when non-nil, receives per-filter admit/reject counters,
	// per-VP drop causes, and the stream's decode counters.
	Metrics *obs.Registry
}

// Defaults returns the paper's parameters.
func Defaults() Options {
	return Options{
		FullFeedFraction: 0.9,
		MinCollectors:    2,
		MinPeerASes:      4,
		LengthFilter:     true,
		MaxParseWarnings: 5,
		PrivateASNShare:  0.05,
		DuplicateShare:   0.10,
		MaxSessionFlaps:  12,
	}
}

// Afek2002 returns the reproduction-mode options (§3.1: all prefixes,
// every peer assumed full-feed by construction).
func Afek2002() Options {
	o := Defaults()
	o.KeepAllPrefixes = true
	o.LengthFilter = false
	o.MinCollectors = 1
	o.MinPeerASes = 1
	return o
}

// RemovalReason explains why a peer AS was dropped.
type RemovalReason string

// Removal reasons.
const (
	RemovedAddPath    RemovalReason = "add-path parse errors"
	RemovedPrivateASN RemovalReason = "private ASN in paths"
	RemovedDuplicates RemovalReason = "excessive duplicate prefixes"
	RemovedFlapStorm  RemovalReason = "session flap storm"
)

// ErrAllFeedsRemoved is returned when sanitization removes or
// quarantines every feed that had any data: an empty snapshot would be
// indistinguishable from a healthy era with nothing to show, so the
// pipeline refuses to emit one.
var ErrAllFeedsRemoved = errors.New("sanitize: all feeds removed or quarantined")

// FeedStat describes one feed (collector, peer AS) before filtering.
type FeedStat struct {
	VP             core.VP
	UniquePrefixes int
	Duplicates     int
	PrivateASN     int
	ASSetDropped   int
	LoopDropped    int
	FullFeed       bool
}

// Report documents the pipeline's decisions.
type Report struct {
	Feeds []FeedStat
	// MaxPrefixCount is the per-feed maximum unique prefix count — the
	// basis of the full-feed threshold (Fig 12).
	MaxPrefixCount int
	// FullFeedThreshold = FullFeedFraction × MaxPrefixCount.
	FullFeedThreshold int
	// FullFeeds counts feeds above the threshold (Fig 13).
	FullFeeds int
	// RemovedPeerASes maps peer ASN → reason (Table 5).
	RemovedPeerASes map[uint32]RemovalReason
	// QuarantinedCollectors lists collectors (sorted) whose feeds were
	// excluded wholesale — the caller's quarantine set plus any source
	// Clean's own RIB stream quarantined. Their feeds appear nowhere
	// else in the report.
	QuarantinedCollectors []string
	// QuarantinedFeeds counts feeds dropped by the quarantine.
	QuarantinedFeeds int
	// Prefix funnel.
	PrefixesSeen       int // distinct prefixes in full-feed data
	PrefixesAdmitted   int // after length + visibility filters
	DroppedByLength    int
	DroppedByCollector int
	DroppedByPeerASes  int
	// MOAS accounting (prefixes with >1 origin among admitted).
	MOASPrefixes int
}

// ErrUnsortedRoutes is returned by CleanFeeds for a feed whose Routes
// are not strictly ascending by prefix: merging it would silently pair
// the wrong routes.
var ErrUnsortedRoutes = errors.New("sanitize: feed routes not strictly ascending by prefix")

// Feed is one peer feed's routing table — the unit of the pipeline.
// Feeds come either from MRT archives (Clean) or directly from the
// simulator's in-memory routes (the longitudinal fast path).
type Feed struct {
	VP   core.VP
	Time uint32
	// Routes holds one observed AS path per prefix, strictly ascending
	// by prefixset.ComparePrefixes.
	Routes []Route
	// Duplicates counts repeated route entries seen during ingestion.
	Duplicates int
	// ASSetDropped counts paths dropped for multi-member AS_SETs.
	ASSetDropped int
}

// Route is one prefix's AS path in a feed.
type Route struct {
	Prefix netip.Prefix
	Path   aspath.Seq
}

// feedKey identifies a feed.
type feedKey struct {
	collector string
	asn       uint32
}

// ribElem is one RIB element of a feed during ingestion; ord is its
// arrival order within the feed.
type ribElem struct {
	pfx      netip.Prefix
	ord      uint32
	id       aspath.ID
	unusable bool
}

// ingestFeed collects one feed's RIB elements in arrival order.
type ingestFeed struct {
	feed  *Feed
	elems []ribElem
}

// finish sorts the feed's elements by prefix, keeping arrival order
// among equal prefixes, and keeps the first usable path per prefix. A
// later element for a prefix that already has a path counts as a
// duplicate; an unusable path (multi-AS-set or confederation) before
// any usable one counts as AS-set-dropped and leaves the prefix unseen
// at this feed (§2.4.4), so a later usable path still wins.
func (in *ingestFeed) finish(table *aspath.Table) *Feed {
	slices.SortFunc(in.elems, func(a, b ribElem) int {
		if c := prefixset.ComparePrefixes(a.pfx, b.pfx); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	fd := in.feed
	fd.Routes = make([]Route, 0, len(in.elems))
	for _, e := range in.elems {
		switch {
		case len(fd.Routes) > 0 && fd.Routes[len(fd.Routes)-1].Prefix == e.pfx:
			fd.Duplicates++
		case e.unusable:
			fd.ASSetDropped++
		default:
			// The stored Seq is table-owned: stable for the life of the
			// table, no per-element copy.
			//atomlint:owned table-owned Seq: the era's intern table outlives every feed built from it
			fd.Routes = append(fd.Routes, Route{Prefix: e.pfx, Path: table.Seq(e.id)})
		}
	}
	fd.Routes = slices.Clip(fd.Routes)
	in.elems = nil
	return fd
}

// compareVPs orders vantage points by collector, then peer ASN.
func compareVPs(a, b core.VP) int {
	if c := cmp.Compare(a.Collector, b.Collector); c != 0 {
		return c
	}
	return cmp.Compare(a.ASN, b.ASN)
}

// Clean runs the full pipeline over RIB sources, consulting update-
// stream warnings for abnormal-peer detection, and produces the
// sanitized snapshot. The returned Report explains every removal.
func Clean(sources []bgpstream.Source, updateWarnings []bgpstream.Warning, opts Options) (*core.Snapshot, *Report, error) {
	// Pass 1: ingest RIB elements per feed.
	sp := opts.Span.Child("sanitize.ingest")
	elems := 0
	feeds := map[feedKey]*ingestFeed{}
	filter := &bgpstream.Filter{
		Types:  map[bgpstream.ElemType]bool{bgpstream.ElemRIB: true},
		V4Only: opts.Family == 4,
		V6Only: opts.Family == 6,
	}
	stream := bgpstream.NewStream(filter, sources...)
	stream.SetMetrics(opts.Metrics)
	stream.SetWorkers(opts.Workers)
	// The stream's decode workers flatten and intern every RIB path into
	// the pipeline's table, so ingest below just resolves IDs — and any
	// snapshot sharing this table (opts.Intern) hits the table warm.
	table := opts.Intern
	if table == nil {
		table = aspath.NewTable()
	}
	stream.SetIntern(table)
	degradeMin, degradeMax := opts.DegradationMinRecords, opts.DegradationMaxSkipRatio
	if degradeMin == 0 {
		degradeMin = bgpstream.DefaultDegradeMinRecords
	}
	if degradeMax == 0 {
		degradeMax = bgpstream.DefaultDegradeMaxSkipRatio
	}
	stream.SetDegradation(degradeMin, degradeMax)
	for {
		batch, err := stream.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		elems += len(batch)
		for i := range batch {
			e := &batch[i]
			k := feedKey{collector: e.Collector, asn: e.PeerASN}
			in := feeds[k]
			if in == nil {
				in = &ingestFeed{feed: &Feed{
					VP:   core.VP{Collector: e.Collector, ASN: e.PeerASN},
					Time: e.Timestamp,
				}}
				feeds[k] = in
			}
			pfx := prefixset.Canonical(e.Prefix)
			if !pfx.IsValid() {
				continue
			}
			in.elems = append(in.elems, ribElem{
				pfx: pfx, ord: uint32(len(in.elems)), id: e.InternedPath, unusable: e.PathUnusable,
			})
		}
	}
	list := make([]*Feed, 0, len(feeds))
	for _, in := range feeds {
		list = append(list, in.finish(table))
	}
	// The map iteration above hands CleanFeeds its feed order; sort by VP
	// so interning and report assembly see a process-stable sequence.
	slices.SortFunc(list, func(a, b *Feed) int { return compareVPs(a.VP, b.VP) })
	// Merge the RIB stream's own quarantine verdicts (degradation
	// budgets blown while reading these archives) into the caller's set
	// before the feed pipeline runs. Copy: opts is the caller's value.
	if q := stream.Quarantined(); len(q) > 0 {
		merged := make(map[string]bool, len(opts.QuarantinedCollectors)+len(q))
		for name, v := range opts.QuarantinedCollectors {
			merged[name] = v
		}
		for _, name := range q {
			merged[name] = true
		}
		opts.QuarantinedCollectors = merged
	}
	sp.SetAttr("sources", len(sources))
	sp.SetAttr("rib_elems", elems)
	sp.SetAttr("feeds", len(list))
	sp.SetAttr("decode_workers", parallel.Workers(opts.Workers))
	sp.SetAttr("decode_bytes", int(stream.DecodedBytes()))
	sp.End()
	opts.Intern = table
	return CleanFeeds(list, updateWarnings, opts)
}

// CleanFeeds runs the pipeline over already-ingested feeds.
func CleanFeeds(list []*Feed, updateWarnings []bgpstream.Warning, opts Options) (*core.Snapshot, *Report, error) {
	sp := opts.Span.Child("sanitize.clean_feeds")
	defer sp.End()
	reg := opts.Metrics
	rep := &Report{RemovedPeerASes: map[uint32]RemovalReason{}}
	// Remember whether any input feed carried routes: the
	// all-feeds-removed gate below distinguishes "filters ate real data"
	// (an error) from "there was nothing to see" (a legal empty era).
	hadData := false
	for _, f := range list {
		if len(f.Routes) > 0 {
			hadData = true
			break
		}
	}
	// Quarantine: feeds from collectors whose sources blew their
	// degradation budget are excluded wholesale before any other stage —
	// the same mechanism as abnormal-peer removal, one level up. Their
	// stats appear nowhere else in the report.
	if len(opts.QuarantinedCollectors) > 0 {
		kept := make([]*Feed, 0, len(list))
		for _, f := range list {
			if opts.QuarantinedCollectors[f.VP.Collector] {
				rep.QuarantinedFeeds++
				if reg != nil {
					reg.Counter("sanitize.vp_dropped", "vp", f.VP.String(), "cause", "quarantined").Inc()
				}
				continue
			}
			kept = append(kept, f)
		}
		list = kept
		names := make([]string, 0, len(opts.QuarantinedCollectors))
		for name := range opts.QuarantinedCollectors {
			names = append(names, name)
		}
		sort.Strings(names)
		rep.QuarantinedCollectors = names
		if reg != nil {
			reg.Counter("sanitize.quarantined_feeds").Add(int64(rep.QuarantinedFeeds))
		}
	}
	table := opts.Intern
	if table == nil {
		table = aspath.NewTable()
	}

	stage := sp.Child("intern")

	// A feed's routes, filtered by family and loops and interned, stay
	// in parallel prefix-sorted slices; rows gets each route's snapshot
	// row at admission (-1 when its prefix is not admitted).
	type feedData struct {
		stat FeedStat
		pfx  []netip.Prefix
		ids  []aspath.ID
		rows []int32
	}
	var snapTime uint32
	for _, f := range list {
		if snapTime == 0 {
			snapTime = f.Time
		}
	}
	// Per-feed interning runs on the worker pool: each worker owns its
	// feed's slices and interns into the shared striped table. Path ID
	// values depend on interleaving, but every consumer treats IDs as
	// opaque equality tokens, so the snapshot is unchanged.
	feeds := make([]*feedData, len(list))
	err := parallel.ForEach(opts.Workers, len(list), func(i int) error {
		f := list[i]
		fd := &feedData{
			stat: FeedStat{
				VP:           f.VP,
				Duplicates:   f.Duplicates,
				ASSetDropped: f.ASSetDropped,
			},
			pfx: make([]netip.Prefix, 0, len(f.Routes)),
			ids: make([]aspath.ID, 0, len(f.Routes)),
		}
		for j, r := range f.Routes {
			if j > 0 && prefixset.ComparePrefixes(f.Routes[j-1].Prefix, r.Prefix) >= 0 {
				return fmt.Errorf("%w: feed %v at %v", ErrUnsortedRoutes, f.VP, r.Prefix)
			}
			if opts.Family == 4 && !r.Prefix.Addr().Is4() {
				continue
			}
			if opts.Family == 6 && r.Prefix.Addr().Is4() {
				continue
			}
			if r.Path.HasLoop() {
				fd.stat.LoopDropped++
				continue
			}
			if len(r.Path) > 1 && r.Path[1:].HasPrivateASN() {
				fd.stat.PrivateASN++
			}
			fd.pfx = append(fd.pfx, r.Prefix)
			fd.ids = append(fd.ids, table.Intern(r.Path))
		}
		feeds[i] = fd
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if reg != nil {
		reg.Counter("sanitize.feeds").Add(int64(len(feeds)))
		var loops, dups, assets int64
		for _, fd := range feeds {
			loops += int64(fd.stat.LoopDropped)
			dups += int64(fd.stat.Duplicates)
			assets += int64(fd.stat.ASSetDropped)
		}
		reg.Counter("sanitize.routes_dropped", "cause", "loop").Add(loops)
		reg.Counter("sanitize.routes_dropped", "cause", "duplicate").Add(dups)
		reg.Counter("sanitize.routes_dropped", "cause", "as-set").Add(assets)
	}
	stage.SetAttr("feeds", len(feeds))
	stage.SetAttr("paths_interned", table.Len())
	stage.End()
	stage = sp.Child("abnormal_peers")

	// Abnormal peers from update-stream warnings.
	warnByPeer := map[uint32]int{}
	for _, w := range updateWarnings {
		if w.PeerASN != 0 {
			warnByPeer[w.PeerASN]++
		}
	}
	for asn, n := range warnByPeer {
		if n > opts.MaxParseWarnings {
			rep.RemovedPeerASes[asn] = RemovedAddPath
		}
	}

	// Session flap storms: a peer whose sessions bounced more than
	// MaxSessionFlaps times across the update window holds a RIB that is
	// a stale snapshot of an unstable view; remove the peer AS exactly
	// like the other abnormal-peer classes.
	if opts.MaxSessionFlaps > 0 {
		for asn, n := range opts.SessionFlaps {
			if n > opts.MaxSessionFlaps {
				rep.RemovedPeerASes[asn] = RemovedFlapStorm
			}
		}
	}

	// Abnormal peers from feed-level shares. Removal is by peer AS
	// (every feed of that AS goes), matching the paper.
	for _, fd := range feeds {
		n := len(fd.pfx)
		fd.stat.UniquePrefixes = n
		if n == 0 {
			continue
		}
		if float64(fd.stat.PrivateASN)/float64(n) > opts.PrivateASNShare {
			rep.RemovedPeerASes[fd.stat.VP.ASN] = RemovedPrivateASN
		}
		if float64(fd.stat.Duplicates)/float64(n+fd.stat.Duplicates) > opts.DuplicateShare {
			rep.RemovedPeerASes[fd.stat.VP.ASN] = RemovedDuplicates
		}
	}
	if reg != nil {
		for _, reason := range rep.RemovedPeerASes {
			reg.Counter("sanitize.removed_peer_ases", "reason", string(reason)).Inc()
		}
	}
	stage.SetAttr("removed_peer_ases", len(rep.RemovedPeerASes))
	stage.End()
	stage = sp.Child("full_feed")

	// Full-feed inference over surviving feeds.
	max := 0
	for _, fd := range feeds {
		if _, gone := rep.RemovedPeerASes[fd.stat.VP.ASN]; gone {
			continue
		}
		if len(fd.pfx) > max {
			max = len(fd.pfx)
		}
	}
	rep.MaxPrefixCount = max
	rep.FullFeedThreshold = int(opts.FullFeedFraction * float64(max))

	var vpFeeds []*feedData
	for _, fd := range feeds {
		if _, gone := rep.RemovedPeerASes[fd.stat.VP.ASN]; gone {
			if reg != nil {
				reg.Counter("sanitize.vp_dropped", "vp", fd.stat.VP.String(), "cause", "abnormal-peer").Inc()
			}
			continue
		}
		if len(fd.pfx) > rep.FullFeedThreshold ||
			(opts.KeepAllPrefixes && len(fd.pfx) > 0) {
			fd.stat.FullFeed = len(fd.pfx) > rep.FullFeedThreshold
			if fd.stat.FullFeed {
				rep.FullFeeds++
			}
			vpFeeds = append(vpFeeds, fd)
		} else if reg != nil {
			reg.Counter("sanitize.vp_dropped", "vp", fd.stat.VP.String(), "cause", "below-threshold").Inc()
		}
	}
	if reg != nil {
		reg.Counter("sanitize.vps_admitted").Add(int64(len(vpFeeds)))
	}
	// Deterministic VP order.
	slices.SortFunc(vpFeeds, func(a, b *feedData) int { return compareVPs(a.stat.VP, b.stat.VP) })
	for _, fd := range feeds {
		rep.Feeds = append(rep.Feeds, fd.stat)
	}
	slices.SortFunc(rep.Feeds, func(a, b FeedStat) int { return compareVPs(a.VP, b.VP) })

	stage.SetAttr("max_prefixes", rep.MaxPrefixCount)
	stage.SetAttr("threshold", rep.FullFeedThreshold)
	stage.SetAttr("full_feeds", rep.FullFeeds)
	stage.SetAttr("vps", len(vpFeeds))
	stage.End()

	// Refuse to emit an empty snapshot when sanitization itself removed
	// every feed that had data: downstream an empty era is
	// indistinguishable from a healthy one with nothing to show. An era
	// that was empty on arrival (or empty in the requested family, with
	// no removals) still passes through.
	if len(vpFeeds) == 0 && hadData &&
		(rep.QuarantinedFeeds > 0 || len(rep.RemovedPeerASes) > 0) {
		return nil, rep, fmt.Errorf("%w: %d feeds quarantined, %d peer ASes removed",
			ErrAllFeedsRemoved, rep.QuarantinedFeeds, len(rep.RemovedPeerASes))
	}
	stage = sp.Child("admission")

	// Prefix admission: length + visibility thresholds over VP feeds.
	// One k-way cursor sweep over the sorted feeds visits the union of
	// their prefixes in prefixset order. At each union prefix, the feeds
	// whose cursor sits on it count distinct collectors and peer ASes by
	// stamping dense feed-level IDs with the prefix's ordinal (no
	// clearing between prefixes), then record the prefix's snapshot row
	// for their route and advance.
	collID := map[string]int32{}
	asnID := map[uint32]int32{}
	feedColl := make([]int32, len(vpFeeds))
	feedASN := make([]int32, len(vpFeeds))
	for i, fd := range vpFeeds {
		ci, ok := collID[fd.stat.VP.Collector]
		if !ok {
			ci = int32(len(collID))
			collID[fd.stat.VP.Collector] = ci
		}
		ai, ok := asnID[fd.stat.VP.ASN]
		if !ok {
			ai = int32(len(asnID))
			asnID[fd.stat.VP.ASN] = ai
		}
		feedColl[i], feedASN[i] = ci, ai
		fd.rows = make([]int32, len(fd.pfx))
	}
	collStamp := make([]int32, len(collID))
	asnStamp := make([]int32, len(asnID))

	// admit applies the length filter, then the visibility thresholds
	// over the feeds carrying pfx.
	admit := func(pfx netip.Prefix, hits []int, stamp int32) bool {
		if opts.LengthFilter && !prefixset.Admissible(pfx) {
			rep.DroppedByLength++
			return false
		}
		if opts.KeepAllPrefixes {
			return true
		}
		nColl, nASN := 0, 0
		for _, fi := range hits {
			if collStamp[feedColl[fi]] != stamp {
				collStamp[feedColl[fi]] = stamp
				nColl++
			}
			if asnStamp[feedASN[fi]] != stamp {
				asnStamp[feedASN[fi]] = stamp
				nASN++
			}
		}
		if nColl < opts.MinCollectors {
			rep.DroppedByCollector++
			return false
		}
		if nASN < opts.MinPeerASes {
			rep.DroppedByPeerASes++
			return false
		}
		return true
	}

	cursor := make([]int, len(vpFeeds))
	hits := make([]int, 0, len(vpFeeds)) // feeds whose cursor is on the union prefix
	admitted := make([]netip.Prefix, 0, rep.MaxPrefixCount)
	for stamp := int32(1); ; stamp++ {
		var pfx netip.Prefix
		hits = hits[:0]
		for fi, fd := range vpFeeds {
			c := cursor[fi]
			if c == len(fd.pfx) {
				continue
			}
			// Most cursors sit on the union prefix: test equality first.
			if len(hits) > 0 && fd.pfx[c] == pfx {
				hits = append(hits, fi)
			} else if len(hits) == 0 || prefixset.ComparePrefixes(fd.pfx[c], pfx) < 0 {
				pfx = fd.pfx[c]
				hits = append(hits[:0], fi)
			}
		}
		if len(hits) == 0 {
			break
		}
		rep.PrefixesSeen++
		row := int32(-1)
		if admit(pfx, hits, stamp) {
			row = int32(len(admitted))
			admitted = append(admitted, pfx)
		}
		for _, fi := range hits {
			vpFeeds[fi].rows[cursor[fi]] = row
			cursor[fi]++
		}
	}
	// admitted inherits the sweep's sorted order; no re-sort needed.
	rep.PrefixesAdmitted = len(admitted)
	if reg != nil {
		reg.Counter("sanitize.prefixes_seen").Add(int64(rep.PrefixesSeen))
		reg.Counter("sanitize.prefixes_admitted").Add(int64(rep.PrefixesAdmitted))
		reg.Counter("sanitize.prefixes_dropped", "filter", "length").Add(int64(rep.DroppedByLength))
		reg.Counter("sanitize.prefixes_dropped", "filter", "min-collectors").Add(int64(rep.DroppedByCollector))
		reg.Counter("sanitize.prefixes_dropped", "filter", "min-peer-ases").Add(int64(rep.DroppedByPeerASes))
	}
	stage.SetAttr("seen", rep.PrefixesSeen)
	stage.SetAttr("admitted", rep.PrefixesAdmitted)
	stage.End()
	stage = sp.Child("assemble")

	// Assemble the snapshot.
	vps := make([]core.VP, len(vpFeeds))
	for i, fd := range vpFeeds {
		vps[i] = fd.stat.VP
	}
	// Share the interning table built during ingestion.
	snap := core.NewSnapshotWith(snapTime, vps, admitted, table)
	for v, fd := range vpFeeds {
		for c, row := range fd.rows {
			if row >= 0 {
				snap.Row(int(row))[v] = fd.ids[c]
			}
		}
	}
	// MOAS: each chunk scans a disjoint range of rows; only the tally is
	// shared, so it accumulates atomically. The tiny origins scratch is
	// reused across the chunk's prefixes (origin counts per prefix are
	// small; a linear scan beats a map).
	var moas atomic.Int64
	parallel.Chunks(opts.Workers, len(admitted), func(lo, hi int) error {
		origins := make([]uint32, 0, 8)
		for p := lo; p < hi; p++ {
			origins = origins[:0]
			for _, id := range snap.Row(p) {
				if id == aspath.Empty {
					continue
				}
				if o, ok := table.Origin(id); ok && !slices.Contains(origins, o) {
					origins = append(origins, o)
				}
			}
			if len(origins) > 1 {
				moas.Add(1)
			}
		}
		return nil
	})
	rep.MOASPrefixes = int(moas.Load())
	if reg != nil {
		reg.Counter("sanitize.moas_prefixes").Add(int64(rep.MOASPrefixes))
	}
	stage.End()
	sp.SetAttr("feeds", len(feeds))
	sp.SetAttr("vps", len(vpFeeds))
	sp.SetAttr("prefixes", rep.PrefixesAdmitted)
	return snap, rep, nil
}

// CountAdmitted runs only the visibility portion of the pipeline for a
// threshold pair — the Table 7 sensitivity sweep — reusing a prepared
// visibility index built by VisibilityIndex.
type Visibility struct {
	collectors []uint8 // per prefix: distinct collector count (capped 255)
	peerASes   []uint16
	lengthOK   []bool
}

// VisibilityIndex precomputes per-prefix visibility over full feeds so
// threshold sweeps don't re-read the archives.
func VisibilityIndex(sources []bgpstream.Source, updateWarnings []bgpstream.Warning, opts Options) (*Visibility, error) {
	// Reuse Clean with thresholds of 1 to keep a single code path.
	sweep := opts
	sweep.MinCollectors = 1
	sweep.MinPeerASes = 1
	sweep.LengthFilter = false
	snap, _, err := Clean(sources, updateWarnings, sweep)
	if err != nil {
		return nil, err
	}
	v := &Visibility{
		collectors: make([]uint8, len(snap.Prefixes)),
		peerASes:   make([]uint16, len(snap.Prefixes)),
		lengthOK:   make([]bool, len(snap.Prefixes)),
	}
	for p, pfx := range snap.Prefixes {
		colls := map[string]struct{}{}
		ases := map[uint32]struct{}{}
		for vi, id := range snap.Row(p) {
			if id == aspath.Empty {
				continue
			}
			colls[snap.VPs[vi].Collector] = struct{}{}
			ases[snap.VPs[vi].ASN] = struct{}{}
		}
		if len(colls) > 255 {
			v.collectors[p] = 255
		} else {
			v.collectors[p] = uint8(len(colls))
		}
		if len(ases) > 65535 {
			v.peerASes[p] = 65535
		} else {
			v.peerASes[p] = uint16(len(ases))
		}
		v.lengthOK[p] = prefixset.Admissible(pfx)
	}
	return v, nil
}

// Count returns the number of prefixes admitted under a threshold pair
// (with the length filter applied), reproducing one Table 7 cell.
func (v *Visibility) Count(minCollectors, minPeerASes int) int {
	n := 0
	for p := range v.collectors {
		if !v.lengthOK[p] {
			continue
		}
		if int(v.collectors[p]) >= minCollectors && int(v.peerASes[p]) >= minPeerASes {
			n++
		}
	}
	return n
}
