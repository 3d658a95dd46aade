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

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/obs"
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
	// KeepAllPrefixes reproduces Afek et al.'s 2002 methodology:
	// no visibility thresholds, no length filter.
	KeepAllPrefixes bool
	// Family restricts the snapshot to one address family: 0 = both,
	// 4 = IPv4 only, 6 = IPv6 only. Atoms are computed per family, and
	// full-feed inference runs within the family's own table sizes.
	Family int
	// Workers is ignored: Clean decodes its sources as one stream, a
	// record at a time. The field remains only because the benchmark
	// program sets it.
	Workers int
	// Intern, when non-nil, is the AS-path intern table Clean decodes
	// into instead of building a fresh one; CleanFeeds reads its feed
	// set's own table. Sharing one table across the snapshots of an era
	// (longitudinal does this) means the second and later snapshots
	// intern almost entirely on the allocation-free hit path. IDs are
	// only meaningful within one table, so callers must scope a shared
	// table to consumers that never compare IDs across unrelated
	// snapshots — the repo-wide invariant since PR2 is that outputs
	// depend on ID equality only.
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

// ErrUnsortedRoutes is returned by CleanFeeds for a FeedSet whose
// Prefixes are not strictly ascending: its rows would pair wrong routes.
var ErrUnsortedRoutes = errors.New("sanitize: feed set prefixes not strictly ascending")

// FeedSet is one snapshot's peer feeds — the unit of the pipeline, built
// by the wire path (Clean) and the simulator's fast path
// (collector.BuildFeeds) alike. Routes live in one pointer-free
// len(Prefixes) × len(Feeds) matrix of path IDs in Paths, prefix-major
// like core.Snapshot; aspath.Empty means the feed has no route there.
type FeedSet struct {
	Time  uint32
	Paths *aspath.Table
	// Prefixes is the union of every feed's prefixes, strictly
	// ascending by prefixset.ComparePrefixes.
	Prefixes []netip.Prefix
	Feeds    []FeedInfo
	// cells is the flat (prefix × feed) matrix: prefix p's route at feed
	// f lives at cells[p*len(Feeds)+f].
	cells []aspath.ID
}

// FeedInfo is one feed's identity and ingest-time counts.
type FeedInfo struct {
	VP core.VP
	// Duplicates counts repeated route entries seen during ingestion.
	Duplicates int
	// ASSetDropped counts paths dropped for multi-member AS_SETs.
	ASSetDropped int
}

// NewFeedSet returns a feed set over the given prefixes and feeds with
// every route empty; fill it through Row. The prefixes and feeds fix
// the matrix shape, so neither slice may change length afterwards.
func NewFeedSet(time uint32, paths *aspath.Table, prefixes []netip.Prefix, feeds []FeedInfo) *FeedSet {
	cells := make([]aspath.ID, len(prefixes)*len(feeds))
	return &FeedSet{Time: time, Paths: paths, Prefixes: prefixes, Feeds: feeds, cells: cells}
}

// Row returns prefix p's route at every feed, indexed like Feeds — a
// view into the matrix, so writes fill the set.
func (fs *FeedSet) Row(p int) []aspath.ID {
	lo, hi := p*len(fs.Feeds), (p+1)*len(fs.Feeds)
	return fs.cells[lo:hi:hi]
}

// feedKey identifies a feed.
type feedKey struct {
	collector string
	asn       uint32
}

// ribElem is one RIB element of a feed during ingestion: its prefix,
// numbered by first arrival in the stream, and its interned path.
type ribElem struct {
	pfx      int32
	id       aspath.ID
	unusable bool
}

// ingestFeed collects one feed's RIB elements in arrival order.
type ingestFeed struct {
	info  FeedInfo
	time  uint32
	elems []ribElem
}

// feedSetOf lays ingested feeds out as one FeedSet. The prefixes,
// numbered by first arrival, are sorted once; then each feed's elements
// replay in arrival order, keeping the first usable path per prefix. A
// later element for a prefix that already has a path counts as a
// duplicate; an unusable path (multi-AS-set or confederation) before
// any usable one counts as AS-set-dropped and leaves the prefix unseen
// at this feed (§2.4.4), so a later usable path still wins.
func feedSetOf(list []*ingestFeed, prefixes []netip.Prefix, arrival map[netip.Prefix]int32, time uint32, paths *aspath.Table) *FeedSet {
	sorted := slices.Clone(prefixes)
	prefixset.SortPrefixes(sorted)
	rowOf := make([]int32, len(prefixes)) // arrival number → row
	for r, pfx := range sorted {
		rowOf[arrival[pfx]] = int32(r)
	}
	feeds := make([]FeedInfo, len(list))
	for fi, in := range list {
		feeds[fi] = in.info
	}
	fs := NewFeedSet(time, paths, sorted, feeds)
	for fi, in := range list {
		f := &fs.Feeds[fi]
		for _, e := range in.elems {
			switch cell := &fs.Row(int(rowOf[e.pfx]))[fi]; {
			case *cell != aspath.Empty:
				f.Duplicates++
			case e.unusable:
				f.ASSetDropped++
			default:
				*cell = e.id
			}
		}
		in.elems = nil
	}
	return fs
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
	var prefixes []netip.Prefix
	arrival := map[netip.Prefix]int32{} // prefix → its number in prefixes
	filter := &bgpstream.Filter{
		Types:  map[bgpstream.ElemType]bool{bgpstream.ElemRIB: true},
		V4Only: opts.Family == 4,
		V6Only: opts.Family == 6,
	}
	stream := bgpstream.NewStream(filter, sources...)
	stream.SetMetrics(opts.Metrics)
	// The stream flattens and interns every RIB path into the pipeline's
	// table, so ingest below just carries IDs — and any snapshot sharing
	// this table (opts.Intern) hits the table warm.
	table := opts.Intern
	if table == nil {
		table = aspath.NewTable()
	}
	stream.SetIntern(table)
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
				in = &ingestFeed{
					info: FeedInfo{VP: core.VP{Collector: e.Collector, ASN: e.PeerASN}},
					time: e.Timestamp,
				}
				feeds[k] = in
			}
			pfx := prefixset.Canonical(e.Prefix)
			if !pfx.IsValid() {
				continue
			}
			n, ok := arrival[pfx]
			if !ok {
				n = int32(len(prefixes))
				arrival[pfx] = n
				prefixes = append(prefixes, pfx)
			}
			in.elems = append(in.elems, ribElem{pfx: n, id: e.InternedPath, unusable: e.PathUnusable})
		}
	}
	list := make([]*ingestFeed, 0, len(feeds))
	for _, in := range feeds {
		list = append(list, in)
	}
	// The map iteration above hands out feeds in random order; sort by
	// VP so the feed set is process-stable.
	slices.SortFunc(list, func(a, b *ingestFeed) int { return compareVPs(a.info.VP, b.info.VP) })
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
	// The snapshot is stamped with the first surviving feed's time.
	var snapTime uint32
	for _, in := range list {
		if snapTime == 0 && !opts.QuarantinedCollectors[in.info.VP.Collector] {
			snapTime = in.time
		}
	}
	fs := feedSetOf(list, prefixes, arrival, snapTime, table)
	sp.SetAttr("sources", len(sources))
	sp.SetAttr("rib_elems", elems)
	sp.SetAttr("feeds", len(list))
	sp.SetAttr("decode_bytes", int(stream.DecodedBytes()))
	sp.End()
	return CleanFeeds(fs, updateWarnings, opts)
}

// Per-path filter verdict bits, memoized by path ID in CleanFeeds.
const pathChecked, pathLoop, pathPrivate uint8 = 1, 2, 4

// CleanFeeds runs the pipeline over an already-built feed set. It reads
// fs and interns nothing: the snapshot shares fs.Paths.
func CleanFeeds(fs *FeedSet, updateWarnings []bgpstream.Warning, opts Options) (*core.Snapshot, *Report, error) {
	for p := 1; p < len(fs.Prefixes); p++ {
		if prefixset.ComparePrefixes(fs.Prefixes[p-1], fs.Prefixes[p]) >= 0 {
			return nil, nil, fmt.Errorf("%w: %v after %v", ErrUnsortedRoutes, fs.Prefixes[p], fs.Prefixes[p-1])
		}
	}
	sp := opts.Span.Child("sanitize.clean_feeds")
	defer sp.End()
	reg := opts.Metrics
	rep := &Report{RemovedPeerASes: map[uint32]RemovalReason{}}
	// Remember whether any feed carried routes: the all-feeds-removed
	// gate below distinguishes "filters ate real data" (an error) from
	// "there was nothing to see" (a legal empty era).
	hadData := slices.ContainsFunc(fs.cells, func(id aspath.ID) bool { return id != aspath.Empty })
	// Quarantine: feeds from collectors whose sources blew their
	// degradation budget are excluded wholesale before any other stage —
	// the same mechanism as abnormal-peer removal, one level up. Their
	// stats appear nowhere else in the report. live holds the rest, as
	// columns of fs.
	live := make([]int, 0, len(fs.Feeds))
	stats := make([]FeedStat, len(fs.Feeds))
	for fi, f := range fs.Feeds {
		if opts.QuarantinedCollectors[f.VP.Collector] {
			rep.QuarantinedFeeds++
			if reg != nil {
				reg.Counter("sanitize.vp_dropped", "vp", f.VP.String(), "cause", "quarantined").Inc()
			}
			continue
		}
		live = append(live, fi)
		stats[fi] = FeedStat{VP: f.VP, Duplicates: f.Duplicates, ASSetDropped: f.ASSetDropped}
	}
	if len(opts.QuarantinedCollectors) > 0 {
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

	stage := sp.Child("intern")

	// One pass over the rows of the requested family counts each live
	// feed's unique prefixes, loop drops and private-ASN paths. The loop
	// and private-ASN checks run once per path ID, memoized in verdict;
	// a route is kept when its prefix is in the family and its path has
	// no loop.
	inFamily := func(pfx netip.Prefix) bool {
		return opts.Family == 0 || pfx.Addr().Is4() == (opts.Family == 4)
	}
	verdict := make([]uint8, fs.Paths.Len())
	kept := func(id aspath.ID) bool {
		return id != aspath.Empty && verdict[id]&pathLoop == 0
	}
	for p, pfx := range fs.Prefixes {
		if !inFamily(pfx) {
			continue
		}
		row := fs.Row(p)
		for _, fi := range live {
			id := row[fi]
			if id == aspath.Empty {
				continue
			}
			v := verdict[id]
			if v == 0 {
				path := fs.Paths.Seq(id)
				v = pathChecked
				if path.HasLoop() {
					v |= pathLoop
				}
				if len(path) > 1 && path[1:].HasPrivateASN() {
					v |= pathPrivate
				}
				verdict[id] = v
			}
			st := &stats[fi]
			if v&pathLoop != 0 {
				st.LoopDropped++
				continue
			}
			st.UniquePrefixes++
			if v&pathPrivate != 0 {
				st.PrivateASN++
			}
		}
	}
	if reg != nil {
		reg.Counter("sanitize.feeds").Add(int64(len(live)))
		var loops, dups, assets int64
		for _, fi := range live {
			loops += int64(stats[fi].LoopDropped)
			dups += int64(stats[fi].Duplicates)
			assets += int64(stats[fi].ASSetDropped)
		}
		reg.Counter("sanitize.routes_dropped", "cause", "loop").Add(loops)
		reg.Counter("sanitize.routes_dropped", "cause", "duplicate").Add(dups)
		reg.Counter("sanitize.routes_dropped", "cause", "as-set").Add(assets)
	}
	stage.SetAttr("feeds", len(live))
	stage.SetAttr("paths", fs.Paths.Len())
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
	for _, fi := range live {
		st := &stats[fi]
		n := st.UniquePrefixes
		if n == 0 {
			continue
		}
		if float64(st.PrivateASN)/float64(n) > opts.PrivateASNShare {
			rep.RemovedPeerASes[st.VP.ASN] = RemovedPrivateASN
		}
		if float64(st.Duplicates)/float64(n+st.Duplicates) > opts.DuplicateShare {
			rep.RemovedPeerASes[st.VP.ASN] = RemovedDuplicates
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
	for _, fi := range live {
		if _, gone := rep.RemovedPeerASes[stats[fi].VP.ASN]; !gone {
			rep.MaxPrefixCount = max(rep.MaxPrefixCount, stats[fi].UniquePrefixes)
		}
	}
	rep.FullFeedThreshold = int(opts.FullFeedFraction * float64(rep.MaxPrefixCount))

	// vpFeeds holds the columns of fs that become snapshot VPs.
	var vpFeeds []int
	for _, fi := range live {
		st := &stats[fi]
		if _, gone := rep.RemovedPeerASes[st.VP.ASN]; gone {
			if reg != nil {
				reg.Counter("sanitize.vp_dropped", "vp", st.VP.String(), "cause", "abnormal-peer").Inc()
			}
			continue
		}
		if st.UniquePrefixes > rep.FullFeedThreshold ||
			(opts.KeepAllPrefixes && st.UniquePrefixes > 0) {
			st.FullFeed = st.UniquePrefixes > rep.FullFeedThreshold
			if st.FullFeed {
				rep.FullFeeds++
			}
			vpFeeds = append(vpFeeds, fi)
		} else if reg != nil {
			reg.Counter("sanitize.vp_dropped", "vp", st.VP.String(), "cause", "below-threshold").Inc()
		}
	}
	if reg != nil {
		reg.Counter("sanitize.vps_admitted").Add(int64(len(vpFeeds)))
	}
	// Deterministic VP order.
	slices.SortFunc(vpFeeds, func(a, b int) int { return compareVPs(stats[a].VP, stats[b].VP) })
	for _, fi := range live {
		rep.Feeds = append(rep.Feeds, stats[fi])
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
	// Each row of the family is seen when some VP feed keeps a route
	// there; those feeds count distinct collectors and peer ASes by
	// stamping dense feed-level IDs with the row's ordinal (no clearing
	// between rows).
	collID := map[string]int32{}
	asnID := map[uint32]int32{}
	feedColl := make([]int32, len(vpFeeds))
	feedASN := make([]int32, len(vpFeeds))
	for v, fi := range vpFeeds {
		vp := stats[fi].VP
		ci, ok := collID[vp.Collector]
		if !ok {
			ci = int32(len(collID))
			collID[vp.Collector] = ci
		}
		ai, ok := asnID[vp.ASN]
		if !ok {
			ai = int32(len(asnID))
			asnID[vp.ASN] = ai
		}
		feedColl[v], feedASN[v] = ci, ai
	}
	collStamp := make([]int32, len(collID))
	asnStamp := make([]int32, len(asnID))

	// admit applies the length filter, then the visibility thresholds
	// over the VP feeds (indices into vpFeeds) carrying pfx.
	admit := func(pfx netip.Prefix, hits []int, stamp int32) bool {
		if opts.LengthFilter && !prefixset.Admissible(pfx) {
			rep.DroppedByLength++
			return false
		}
		if opts.KeepAllPrefixes {
			return true
		}
		nColl, nASN := 0, 0
		for _, v := range hits {
			if collStamp[feedColl[v]] != stamp {
				collStamp[feedColl[v]] = stamp
				nColl++
			}
			if asnStamp[feedASN[v]] != stamp {
				asnStamp[feedASN[v]] = stamp
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

	hits := make([]int, 0, len(vpFeeds))
	admitted := make([]netip.Prefix, 0, rep.MaxPrefixCount)
	rows := make([]int, 0, rep.MaxPrefixCount) // admitted prefixes' rows in fs
	for p, pfx := range fs.Prefixes {
		if !inFamily(pfx) {
			continue
		}
		row := fs.Row(p)
		hits = hits[:0]
		for v, fi := range vpFeeds {
			if kept(row[fi]) {
				hits = append(hits, v)
			}
		}
		if len(hits) == 0 {
			continue
		}
		rep.PrefixesSeen++
		if admit(pfx, hits, int32(rep.PrefixesSeen)) {
			admitted = append(admitted, pfx)
			rows = append(rows, p)
		}
	}
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

	// Assemble the snapshot from the VP columns of the admitted rows,
	// counting MOAS prefixes on the way. The tiny origins scratch is
	// reused across rows (origin counts per prefix are small; a linear
	// scan beats a map).
	vps := make([]core.VP, len(vpFeeds))
	for v, fi := range vpFeeds {
		vps[v] = stats[fi].VP
	}
	snap := core.NewSnapshotWith(fs.Time, vps, admitted, fs.Paths)
	origins := make([]uint32, 0, 8)
	for r, p := range rows {
		src, dst := fs.Row(p), snap.Row(r)
		origins = origins[:0]
		for v, fi := range vpFeeds {
			id := src[fi]
			if !kept(id) {
				continue
			}
			dst[v] = id
			if o, ok := fs.Paths.Origin(id); ok && !slices.Contains(origins, o) {
				origins = append(origins, o)
			}
		}
		if len(origins) > 1 {
			rep.MOASPrefixes++
		}
	}
	if reg != nil {
		reg.Counter("sanitize.moas_prefixes").Add(int64(rep.MOASPrefixes))
	}
	stage.End()
	sp.SetAttr("feeds", len(live))
	sp.SetAttr("vps", len(vpFeeds))
	sp.SetAttr("prefixes", rep.PrefixesAdmitted)
	return snap, rep, nil
}

// Visibility indexes, per prefix of a snapshot, how many distinct
// collectors and peer ASes route it, so the Table 7 threshold sweep
// counts every cell without re-reading the archives.
type Visibility struct {
	collectors []uint8 // per prefix: distinct collector count (capped 255)
	peerASes   []uint16
	lengthOK   []bool
}

// NewVisibility indexes snap. For a Table 7 sweep, snap comes from Clean
// with MinCollectors and MinPeerASes at 1 and LengthFilter off, so every
// threshold pair is counted over the same prefixes.
func NewVisibility(snap *core.Snapshot) *Visibility {
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
	return v
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
