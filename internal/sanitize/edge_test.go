package sanitize_test

import (
	"errors"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/core"
	"repro/internal/prefixset"
	"repro/internal/sanitize"
)

// handFeed is one hand-made feed: a vantage point and its routes.
type handFeed struct {
	VP     core.VP
	routes map[netip.Prefix]aspath.Seq
}

// edgeFeed builds one hand-made feed: every prefix routed through the
// peer's own ASN then a common origin.
func edgeFeed(coll string, asn uint32, prefixes ...string) *handFeed {
	f := &handFeed{VP: core.VP{Collector: coll, ASN: asn}, routes: map[netip.Prefix]aspath.Seq{}}
	for _, p := range prefixes {
		setRoute(f, p, aspath.Seq{asn, 9})
	}
	return f
}

// setRoute sets prefix p's path in f.
func setRoute(f *handFeed, p string, path aspath.Seq) {
	f.routes[netip.MustParsePrefix(p)] = path
}

// feedSet lays hand-made feeds out as a FeedSet over a fresh table,
// feeds in the given order.
func feedSet(feeds []*handFeed) *sanitize.FeedSet {
	var prefixes []netip.Prefix
	infos := make([]sanitize.FeedInfo, len(feeds))
	for i, f := range feeds {
		infos[i].VP = f.VP
		for pfx := range f.routes {
			prefixes = append(prefixes, pfx)
		}
	}
	prefixset.SortPrefixes(prefixes)
	fs := sanitize.NewFeedSet(100, aspath.NewTable(), slices.Compact(prefixes), infos)
	for p, pfx := range fs.Prefixes {
		for i, f := range feeds {
			fs.Row(p)[i] = fs.Paths.Intern(f.routes[pfx])
		}
	}
	return fs
}

var edgeWide = []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}

func edgeFeeds() []*handFeed {
	return []*handFeed{
		edgeFeed("c1", 1, edgeWide...),
		edgeFeed("c1", 2, edgeWide...),
		edgeFeed("c2", 3, edgeWide...),
		edgeFeed("c2", 4, edgeWide...),
	}
}

func edgeOpts() sanitize.Options {
	opts := sanitize.Defaults()
	opts.FullFeedFraction = 0.5
	return opts
}

// A single-peer feed set must survive sanitization without error even
// though the visibility thresholds reject everything it carries: one
// collector can never satisfy the two-collector rule.
func TestSinglePeerFeed(t *testing.T) {
	feeds := []*handFeed{edgeFeed("c1", 1, edgeWide...)}
	snap, rep, err := sanitize.CleanFeeds(feedSet(feeds), nil, edgeOpts())
	if err != nil {
		t.Fatalf("single-peer feed errored: %v", err)
	}
	if len(snap.Prefixes) != 0 {
		t.Errorf("admitted %d prefixes on one collector's testimony", len(snap.Prefixes))
	}
	if len(rep.RemovedPeerASes) != 0 {
		t.Errorf("removed peers from a clean single feed: %v", rep.RemovedPeerASes)
	}
	// The VP itself must still be accounted, not silently lost.
	if len(snap.VPs) != 1 {
		t.Errorf("snapshot has %d VPs, want 1", len(snap.VPs))
	}
}

// A peer present in the RIB but absent from the update stream has no
// warnings and no flap counts; it must pass through untouched rather
// than being treated as suspicious for its silence.
func TestPeerInRIBAbsentFromUpdates(t *testing.T) {
	feeds := edgeFeeds()
	// Warnings and flaps implicate peers that have no RIB feed at all.
	warnings := []bgpstream.Warning{
		{Code: bgpstream.WarnAddPathSuspect, PeerASN: 99},
	}
	opts := edgeOpts()
	opts.SessionFlaps = map[uint32]int{99: 50}
	snap, rep, err := sanitize.CleanFeeds(feedSet(feeds), warnings, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feeds {
		if reason, ok := rep.RemovedPeerASes[f.VP.ASN]; ok {
			t.Errorf("silent peer %d removed: %s", f.VP.ASN, reason)
		}
	}
	if len(snap.VPs) != 4 {
		t.Errorf("snapshot has %d VPs, want all 4", len(snap.VPs))
	}
	// The implicated absent peer is still recorded for the report.
	if rep.RemovedPeerASes[99] != sanitize.RemovedFlapStorm {
		t.Errorf("flapping peer 99 not flagged: %v", rep.RemovedPeerASes)
	}
}

// Quarantining every collector in an era that had data must be a loud
// error, never an empty snapshot that downstream stages mistake for a
// legitimately quiet era.
func TestAllFeedsQuarantinedErrors(t *testing.T) {
	opts := edgeOpts()
	opts.QuarantinedCollectors = map[string]bool{"c1": true, "c2": true}
	snap, rep, err := sanitize.CleanFeeds(feedSet(edgeFeeds()), nil, opts)
	if !errors.Is(err, sanitize.ErrAllFeedsRemoved) {
		t.Fatalf("err = %v, want ErrAllFeedsRemoved", err)
	}
	if snap != nil {
		t.Error("error path returned a snapshot")
	}
	if rep == nil || rep.QuarantinedFeeds != 4 {
		t.Fatalf("report = %+v, want 4 quarantined feeds", rep)
	}
	if len(rep.QuarantinedCollectors) != 2 || rep.QuarantinedCollectors[0] != "c1" || rep.QuarantinedCollectors[1] != "c2" {
		t.Errorf("QuarantinedCollectors = %v, want sorted [c1 c2]", rep.QuarantinedCollectors)
	}
}

// Removing every peer via the flap-storm filter is the same failure
// mode as total quarantine and must error identically.
func TestAllPeersRemovedErrors(t *testing.T) {
	opts := edgeOpts()
	opts.SessionFlaps = map[uint32]int{1: 99, 2: 99, 3: 99, 4: 99}
	_, _, err := sanitize.CleanFeeds(feedSet(edgeFeeds()), nil, opts)
	if !errors.Is(err, sanitize.ErrAllFeedsRemoved) {
		t.Fatalf("err = %v, want ErrAllFeedsRemoved", err)
	}
}

// An era that simply has no data for the requested family must NOT
// trip the all-feeds-removed gate: nothing was removed, there was
// nothing to see.
func TestEmptyFamilyEraIsNotAnError(t *testing.T) {
	opts := edgeOpts()
	opts.Family = 6 // feeds are v4-only
	snap, _, err := sanitize.CleanFeeds(feedSet(edgeFeeds()), nil, opts)
	if err != nil {
		t.Fatalf("legitimately empty era errored: %v", err)
	}
	if len(snap.Prefixes) != 0 {
		t.Errorf("v6 pass admitted %d v4 prefixes", len(snap.Prefixes))
	}
}

// Partial quarantine: the surviving collector's feeds carry the
// snapshot; quarantined feeds contribute nothing, and the report says
// exactly which collector was dropped.
func TestPartialQuarantine(t *testing.T) {
	feeds := edgeFeeds()
	// A prefix only c1's peers see: it must vanish with the quarantine.
	setRoute(feeds[0], "10.9.0.0/24", aspath.Seq{1, 9})
	setRoute(feeds[1], "10.9.0.0/24", aspath.Seq{2, 9})
	// Another collector so the two-collector rule can still pass.
	feeds = append(feeds,
		edgeFeed("c3", 5, edgeWide...),
		edgeFeed("c3", 6, edgeWide...),
	)
	opts := edgeOpts()
	opts.QuarantinedCollectors = map[string]bool{"c1": true}
	snap, rep, err := sanitize.CleanFeeds(feedSet(feeds), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuarantinedFeeds != 2 {
		t.Errorf("QuarantinedFeeds = %d, want 2", rep.QuarantinedFeeds)
	}
	for _, vp := range snap.VPs {
		if vp.Collector == "c1" {
			t.Errorf("quarantined VP %v survived", vp)
		}
	}
	for _, pfx := range snap.Prefixes {
		if pfx == netip.MustParsePrefix("10.9.0.0/24") {
			t.Error("prefix witnessed only by the quarantined collector survived")
		}
	}
	if len(snap.Prefixes) != 4 {
		t.Errorf("admitted %d prefixes, want the 4 wide ones", len(snap.Prefixes))
	}
}

// Flap-storm removal must name the reason and drop the peer's feed.
func TestFlapStormRemoval(t *testing.T) {
	opts := edgeOpts()
	opts.SessionFlaps = map[uint32]int{3: opts.MaxSessionFlaps + 1}
	snap, rep, err := sanitize.CleanFeeds(feedSet(edgeFeeds()), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedPeerASes[3] != sanitize.RemovedFlapStorm {
		t.Fatalf("RemovedPeerASes = %v, want peer 3 removed for flap storm", rep.RemovedPeerASes)
	}
	for _, vp := range snap.VPs {
		if vp.ASN == 3 {
			t.Error("flap-storm peer survived as a VP")
		}
	}
	// Exactly at the threshold is tolerated.
	opts.SessionFlaps = map[uint32]int{3: opts.MaxSessionFlaps}
	_, rep, err = sanitize.CleanFeeds(feedSet(edgeFeeds()), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.RemovedPeerASes[3]; ok {
		t.Error("peer at exactly MaxSessionFlaps removed; threshold must be strict")
	}
}

// CleanFeeds must refuse a feed set whose prefixes are out of order or
// repeat a prefix rather than pair routes wrongly.
func TestCleanFeedsRejectsUnsortedRoutes(t *testing.T) {
	for name, broken := range map[string]func(fs *sanitize.FeedSet){
		"unsorted": func(fs *sanitize.FeedSet) {
			fs.Prefixes[1], fs.Prefixes[2] = fs.Prefixes[2], fs.Prefixes[1]
		},
		"duplicate prefix": func(fs *sanitize.FeedSet) {
			fs.Prefixes[2] = fs.Prefixes[1]
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs := feedSet(edgeFeeds())
			broken(fs)
			snap, _, err := sanitize.CleanFeeds(fs, nil, edgeOpts())
			if !errors.Is(err, sanitize.ErrUnsortedRoutes) {
				t.Fatalf("err = %v, want ErrUnsortedRoutes", err)
			}
			if snap != nil {
				t.Error("snapshot returned alongside the error")
			}
		})
	}
}
