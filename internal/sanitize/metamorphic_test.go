package sanitize_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgpstream"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sanitize"
	"repro/internal/topology"
)

// artifactFeeds synthesizes one snapshot's feeds with every collector
// artifact switched on (partial feeds, ghosts, private ASNs, duplicates,
// stuck peers), so every filter and every report field has work to do.
func artifactFeeds(t *testing.T) *sanitize.FeedSet {
	t.Helper()
	p := topology.DefaultParams(41)
	p.Scale = 0.008
	g := topology.Generate(p, topology.EraOf(2019, 3))
	in := collector.BuildInfra(g, collector.Config{Seed: 11, Artifacts: true})
	model := routing.ChurnModel{Seed: 3, UnitEventRate: 0.3, VPEventRate: 0.05,
		TransitFlipShare: 0.4, PrefixMobileShare: 0.01, PrefixBaseMoveRate: 0.01, VPShiftShare: 0.01}
	ov := model.OverlayAt(g, 12.5, in.FullFeedASNs())
	return collector.BuildFeeds(g, in, ov, collector.EpochOf(g.Era), aspath.NewTable())
}

// rebuild copies fs into a new feed set over paths, with new feed i
// being fs's feed perm[i].
func rebuild(fs *sanitize.FeedSet, perm []int, paths *aspath.Table) *sanitize.FeedSet {
	feeds := make([]sanitize.FeedInfo, len(perm))
	for i, f := range perm {
		feeds[i] = fs.Feeds[f]
	}
	out := sanitize.NewFeedSet(fs.Time, paths, fs.Prefixes, feeds)
	for p := range fs.Prefixes {
		src, dst := fs.Row(p), out.Row(p)
		for i, f := range perm {
			dst[i] = paths.Intern(fs.Paths.Seq(src[f]))
		}
	}
	return out
}

// sameSnapshot fails unless got and want hold the same VPs, prefixes and
// paths, comparing paths by value so the two may use different tables.
func sameSnapshot(t *testing.T, what string, got, want *core.Snapshot) {
	t.Helper()
	if got.Time != want.Time || !slices.Equal(got.VPs, want.VPs) || !slices.Equal(got.Prefixes, want.Prefixes) {
		t.Fatalf("%s: snapshot shape differs: %d VPs × %d prefixes, want %d × %d",
			what, len(got.VPs), len(got.Prefixes), len(want.VPs), len(want.Prefixes))
	}
	for p := range want.Prefixes {
		for v := range want.VPs {
			if !got.Route(p, v).Equal(want.Route(p, v)) {
				t.Fatalf("%s: route (%v, %v) = %v, want %v", what, want.Prefixes[p], want.VPs[v], got.Route(p, v), want.Route(p, v))
			}
		}
	}
}

// CleanFeeds treats its feeds as a set and path IDs as opaque: neither
// the order the feeds arrive in nor the IDs their paths intern to may
// change the snapshot or the report.
func TestCleanFeedsInvariantUnderFeedOrderAndRelabeling(t *testing.T) {
	feeds := artifactFeeds(t)
	opts := sanitize.Defaults()
	want, wantRep, err := sanitize.CleanFeeds(feeds, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRep.RemovedPeerASes) == 0 || len(want.Prefixes) == 0 {
		t.Fatalf("scenario removes no peer or admits no prefix: %+v", wantRep)
	}
	identity := make([]int, len(feeds.Feeds))
	for i := range identity {
		identity[i] = i
	}

	reversed := slices.Clone(identity)
	slices.Reverse(reversed)
	got, rep, err := sanitize.CleanFeeds(rebuild(feeds, reversed, feeds.Paths), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "reordered", got, want)
	if !reflect.DeepEqual(rep, wantRep) {
		t.Errorf("reordered: report %+v, want %+v", rep, wantRep)
	}

	// Relabel: a table already holding the paths in reverse ID order.
	fresh := aspath.NewTable()
	for id := want.Paths.Len() - 1; id > 0; id-- {
		fresh.Intern(want.Paths.Seq(aspath.ID(id)))
	}
	got, rep, err = sanitize.CleanFeeds(rebuild(feeds, identity, fresh), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, "relabeled", got, want)
	if !reflect.DeepEqual(rep, wantRep) {
		t.Errorf("relabeled: report %+v, want %+v", rep, wantRep)
	}
}

// CleanFeeds reads its feed set and interns nothing.
func TestCleanFeedsInternsNothing(t *testing.T) {
	feeds := artifactFeeds(t)
	before := feeds.Paths.Len()
	if _, _, err := sanitize.CleanFeeds(feeds, nil, sanitize.Defaults()); err != nil {
		t.Fatal(err)
	}
	if after := feeds.Paths.Len(); after != before {
		t.Errorf("CleanFeeds grew the table from %d to %d paths", before, after)
	}
}

// Clean interns each RIB path once, in the stream's decode workers: the
// table it decodes into ends up exactly as large as after a bare
// bgpstream pass over the same sources.
func TestCleanInternsOnlyInTheStream(t *testing.T) {
	sources, _, _, _ := buildScenario(t, topology.EraOf(2022, 1), true)
	opts := sanitize.Defaults()
	opts.Intern = aspath.NewTable()
	if _, _, err := sanitize.Clean(sources, nil, opts); err != nil {
		t.Fatal(err)
	}
	bare := aspath.NewTable()
	s := bgpstream.NewStream(&bgpstream.Filter{Types: map[bgpstream.ElemType]bool{bgpstream.ElemRIB: true}}, sources...)
	s.SetIntern(bare)
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	if opts.Intern.Len() != bare.Len() {
		t.Errorf("Clean's table holds %d paths, a bare decode's %d", opts.Intern.Len(), bare.Len())
	}
}
