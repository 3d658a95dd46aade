package bgpstream

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/parallel"
)

// mixedSources builds a source set exercising every serve-order hazard:
// clean archives, a truncated one (warning), one with mid-stream garbage
// (resync), one large and damaged enough to blow the degradation budget
// (quarantine), and a reader-backed source over the same archive as the
// first.
func mixedSources(t *testing.T) []Source {
	t.Helper()
	good := buildArchive(t)
	corrupt := good[:len(good)-3]
	garbage := append([]byte(nil), good...)
	garbage = append(garbage, bytes.Repeat([]byte{0xff}, 20)...)
	garbage = append(garbage, good...)
	return []Source{
		BytesSource("rrc00", good, bgp.Options{}),
		BytesSource("bad", corrupt, bgp.Options{}),
		BytesSource("degraded", degradedArchive(t), bgp.Options{}),
		BytesSource("route-views2", garbage, bgp.Options{}),
		{Collector: "reader-backed", R: bytes.NewReader(good), Options: bgp.Options{}},
	}
}

// degradedArchive is a peer table, four clean RIB records and twelve
// framing-valid records whose bodies fail to parse: 17 records, 12
// skipped, well past the 16-record, 0.3-skip-ratio budget.
func degradedArchive(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 1)})
	for seq := uint32(0); seq < 4; seq++ {
		marshalRIBRecord(t, &buf, seq)
	}
	for i := 0; i < 12; i++ {
		writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubRIBIPv4Unicast, Body: []byte{1}})
	}
	return buf.Bytes()
}

// streamResult is everything a drained stream lets a caller observe:
// elements (copied out, since batch memory is reused) and the length of
// each batch, warnings, quarantine set, flaps and per-source ledgers.
type streamResult struct {
	elems       []Elem
	batches     []int
	warnings    []Warning
	quarantined []string
	flaps       map[uint32]int
	stats       map[string]SourceStat
}

func runStream(t *testing.T, intern *aspath.Table) streamResult {
	t.Helper()
	s := NewStream(nil, mixedSources(t)...)
	if intern != nil {
		s.SetIntern(intern)
	}
	var res streamResult
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		res.elems = append(res.elems, batch...) // append copies the elements out
		res.batches = append(res.batches, len(batch))
	}
	res.warnings = s.Warnings()
	res.quarantined = s.Quarantined()
	res.flaps = s.StateFlaps()
	res.stats = s.SourceStats()
	return res
}

// TestNextBatchServeOrder: batches are served one record at a time in
// source order. Each batch is non-empty and holds one source's elements
// under one MsgIndex, and MsgIndex rises from batch to batch. The
// reader-backed source decodes the same archive as rrc00 and yields the
// same elements and warnings; the damaged sources lose framing. A second
// drain over fresh sources and a fresh intern table observes exactly
// the same elements, interned IDs included (paths are interned in serve
// order), warnings, quarantine verdicts, flap counts and per-source
// ledgers.
func TestNextBatchServeOrder(t *testing.T) {
	res := runStream(t, aspath.NewTable())
	if len(res.elems) == 0 {
		t.Fatal("fixture produced no elements")
	}
	off, prevMsg := 0, 0
	for i, n := range res.batches {
		if n == 0 {
			t.Fatalf("batch %d is empty", i)
		}
		batch := res.elems[off : off+n]
		off += n
		for _, e := range batch {
			if e.Collector != batch[0].Collector || e.MsgIndex != batch[0].MsgIndex {
				t.Fatalf("batch %d mixes (%s, msg %d) with (%s, msg %d)",
					i, e.Collector, e.MsgIndex, batch[0].Collector, batch[0].MsgIndex)
			}
		}
		if batch[0].MsgIndex <= prevMsg {
			t.Fatalf("batch %d: MsgIndex %d after %d", i, batch[0].MsgIndex, prevMsg)
		}
		prevMsg = batch[0].MsgIndex
	}

	// The reader-backed source decodes rrc00's archive: the same
	// elements, once MsgIndex is rebased to each source's first message.
	rebased := func(coll string) []Elem {
		var out []Elem
		base := 0
		for _, e := range res.elems {
			if e.Collector != coll {
				continue
			}
			if base == 0 {
				base = e.MsgIndex
			}
			e.Collector, e.MsgIndex = "", e.MsgIndex-base
			out = append(out, e)
		}
		return out
	}
	if a, b := rebased("rrc00"), rebased("reader-backed"); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("reader-backed source diverges from rrc00:\n  rrc00:         %+v\n  reader-backed: %+v", a, b)
	}
	counts := map[string]int{}
	for _, e := range res.elems {
		counts[e.Collector]++
	}
	for _, src := range mixedSources(t) {
		if n := res.stats[src.Collector].Elems; n != counts[src.Collector] {
			t.Errorf("%s: SourceStats counts %d elements, served %d", src.Collector, n, counts[src.Collector])
		}
	}
	// Every archive carries one unknown-subtype record; the damaged ones
	// also lose framing, and the reader-backed source warns as rrc00 does.
	// Only the degraded archive is large enough, and damaged enough, to be
	// quarantined.
	warns := map[string][]string{}
	for _, w := range res.warnings {
		warns[w.Collector] = append(warns[w.Collector], w.Code)
	}
	if !reflect.DeepEqual(warns["rrc00"], warns["reader-backed"]) {
		t.Errorf("warnings: rrc00 %v, reader-backed %v", warns["rrc00"], warns["reader-backed"])
	}
	for _, coll := range []string{"bad", "route-views2"} {
		if !slices.Contains(warns[coll], WarnRecordError) {
			t.Errorf("%s: warnings %v lack %s", coll, warns[coll], WarnRecordError)
		}
	}
	if want := []string{"degraded"}; !reflect.DeepEqual(res.quarantined, want) {
		t.Errorf("quarantined %v, want %v", res.quarantined, want)
	}
	if len(res.flaps) == 0 {
		t.Error("no state flaps counted")
	}

	again := runStream(t, aspath.NewTable())
	if !reflect.DeepEqual(res, again) {
		t.Errorf("a second drain diverges:\n  first:  %+v\n  second: %+v", res, again)
	}
}

// TestDrainKeepsTheLedger: Drain keeps no element, yet leaves every
// accessor as a NextBatch drain does. SortedSources takes a map's
// archives in name order, and a clean archive's DecodedBytes is its
// length.
func TestDrainKeepsTheLedger(t *testing.T) {
	want := runStream(t, nil)
	s := NewStream(nil, mixedSources(t)...)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := s.Warnings(); !reflect.DeepEqual(got, want.warnings) {
		t.Errorf("warnings after Drain:\n  %+v\nafter NextBatch:\n  %+v", got, want.warnings)
	}
	if got := s.Quarantined(); !reflect.DeepEqual(got, want.quarantined) {
		t.Errorf("quarantined %v after Drain, %v after NextBatch", got, want.quarantined)
	}
	if got := s.StateFlaps(); !reflect.DeepEqual(got, want.flaps) {
		t.Errorf("flaps %v after Drain, %v after NextBatch", got, want.flaps)
	}
	if got := s.SourceStats(); !reflect.DeepEqual(got, want.stats) {
		t.Errorf("source stats %+v after Drain, %+v after NextBatch", got, want.stats)
	}

	good := buildArchive(t)
	sources := SortedSources(map[string][]byte{"rrc01": good, "rrc00": good, "empty": nil})
	var names []string
	for _, src := range sources {
		names = append(names, src.Collector)
	}
	if want := []string{"empty", "rrc00", "rrc01"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("SortedSources order %v, want %v", names, want)
	}
	s = NewStream(nil, sources...)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.DecodedBytes(), int64(2*len(good)); got != want {
		t.Errorf("DecodedBytes %d, want %d", got, want)
	}
}

// TestStreamDecodesOnDemand: a stream decodes the current source one
// record at a time, so serving the first batch reads only the first
// source: no later source has a record in its ledger and the
// reader-backed one is unread. SetWorkers is a no-op and the pool clamp
// is lifted, so neither may fan decode out across sources.
func TestStreamDecodesOnDemand(t *testing.T) {
	parallel.ForceParallel(true)
	defer parallel.ForceParallel(false)
	sources := mixedSources(t)
	last := sources[len(sources)-1].R.(*bytes.Reader)
	unread := last.Len()
	s := NewStream(nil, sources...)
	s.SetWorkers(2)
	if _, err := s.NextBatch(); err != nil {
		t.Fatal(err)
	}
	stats := s.SourceStats()
	for _, src := range sources[1:] {
		if st := stats[src.Collector]; st != (SourceStat{}) {
			t.Errorf("%s decoded %+v before source 0 was served", src.Collector, st)
		}
	}
	if last.Len() != unread {
		t.Errorf("reader-backed source read %d bytes before its turn", unread-last.Len())
	}
	if st := stats["rrc00"]; st.Records == 0 || st.Elems == 0 {
		t.Errorf("source 0: %+v, want records decoded and elements served", st)
	}
}

// TestStreamInternStamping: with an intern table attached, every RIB
// and announce element carries the ID of its flattened path, resolvable
// through the table to the same sequence Path.Sequence produces; other
// element types stay at Empty.
func TestStreamInternStamping(t *testing.T) {
	table := aspath.NewTable()
	res := runStream(t, table)
	stamped := 0
	for i, e := range res.elems {
		if e.Type != ElemRIB && e.Type != ElemAnnounce {
			if e.InternedPath != aspath.Empty || e.PathUnusable {
				t.Errorf("elem %d (%v): unexpected intern state", i, e.Type)
			}
			continue
		}
		if e.PathUnusable {
			continue
		}
		want, err := e.Path.Sequence()
		if err != nil {
			t.Fatalf("elem %d: unexpected flatten failure: %v", i, err)
		}
		got := table.Seq(e.InternedPath)
		if len(want) == 0 {
			if e.InternedPath != aspath.Empty {
				t.Errorf("elem %d: empty path interned as %d", i, e.InternedPath)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("elem %d: interned %v, path says %v", i, got, want)
		}
		stamped++
	}
	if stamped == 0 {
		t.Fatal("no elements carried interned paths")
	}
}

// TestUpdateInternsPathOncePerMessage: a multi-NLRI UPDATE stamps each
// of its announcements with exactly what flattening and interning that
// element's own path gives, withdrawals with nothing, and a path whose
// multi-member AS_SET cannot flatten marks every announcement unusable.
// Two messages sharing one clean path grow the table by one ID.
func TestUpdateInternsPathOncePerMessage(t *testing.T) {
	clean := aspath.FromSeq(aspath.Seq{3356, 174, 65001})
	set := aspath.Path{Segments: []aspath.Segment{
		{Type: aspath.SegSequence, ASNs: []uint32{3356, 174}},
		{Type: aspath.SegSet, ASNs: []uint32{65010, 65011}},
	}}
	nlri := func(cidrs ...string) []bgp.NLRI {
		var out []bgp.NLRI
		for _, c := range cidrs {
			out = append(out, bgp.NLRI{Prefix: netip.MustParsePrefix(c)})
		}
		return out
	}
	update := func(path aspath.Path, wdr, ann []bgp.NLRI) *bgp.Update {
		return &bgp.Update{Withdrawn: wdr, Announced: ann, Attrs: []bgp.Attr{
			bgp.Origin(bgp.OriginIGP), bgp.ASPath{Path: path}, bgp.NextHop(netip.MustParseAddr("192.0.2.1")),
		}}
	}
	var buf bytes.Buffer
	for _, u := range []*bgp.Update{
		update(clean, nlri("10.9.0.0/16"), nlri("10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16")),
		update(set, nil, nlri("10.4.0.0/16", "10.5.0.0/16")),
		update(clean, nil, nlri("10.6.0.0/16", "10.7.0.0/16")),
	} {
		data, err := u.Marshal(bgp.Options{AS4: true})
		if err != nil {
			t.Fatal(err)
		}
		writeRecord(t, &buf, mrt.Record{Timestamp: 200, Type: mrt.TypeBGP4MP, Subtype: mrt.SubMessageAS4, Body: marshalMessage(t, data)})
	}

	table := aspath.NewTable()
	s := NewStream(nil, BytesSource("rrc00", buf.Bytes(), bgp.Options{}))
	s.SetIntern(table)
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 8 {
		t.Fatalf("%d elements, want 8", len(elems))
	}
	var unusable int
	for i, e := range elems {
		if e.Type == ElemWithdraw {
			if e.InternedPath != aspath.Empty || e.PathUnusable {
				t.Errorf("elem %d: withdrawal stamped %d/%v", i, e.InternedPath, e.PathUnusable)
			}
			continue
		}
		seq, err := e.Path.Sequence()
		if err != nil {
			unusable++
			if !e.PathUnusable || e.InternedPath != aspath.Empty {
				t.Errorf("elem %d: unflattenable path stamped %d/%v", i, e.InternedPath, e.PathUnusable)
			}
			continue
		}
		if id := table.Intern(seq); e.PathUnusable || e.InternedPath != id {
			t.Errorf("elem %d: stamped %d/%v, per-element intern gives %d", i, e.InternedPath, e.PathUnusable, id)
		}
	}
	if unusable != 2 {
		t.Errorf("%d unusable announcements, want 2", unusable)
	}
	if table.Len() != 2 {
		t.Errorf("table holds %d paths, want the empty path and one more", table.Len())
	}
}
