package bgpstream

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/parallel"
)

// mixedSources builds a source set exercising every serve-order hazard:
// clean archives, a truncated one (warning + possible quarantine), one
// with mid-stream garbage (resync), and a reader-backed source (bufio
// path instead of zero-copy).
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
		BytesSource("route-views2", garbage, bgp.Options{}),
		{Collector: "reader-backed", R: bytes.NewReader(good), Options: bgp.Options{}},
	}
}

// streamResult is everything a drained stream lets a caller observe:
// elements (copied out, since batch memory is reused), warnings,
// quarantine set, flaps and per-source counts.
type streamResult struct {
	elems       []Elem
	warnings    []Warning
	quarantined []string
	flaps       map[uint32]int
	elemCounts  map[string]int
}

func runStream(t *testing.T, useBatch bool, intern *aspath.Table) streamResult {
	t.Helper()
	s := NewStream(nil, mixedSources(t)...)
	// The fixture's archives are too small for the default budget; a
	// zero-tolerance one quarantines every source that skipped a record.
	s.SetDegradation(1, 0)
	if intern != nil {
		s.SetIntern(intern)
	}
	var elems []Elem
	if useBatch {
		for {
			batch, err := s.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			elems = append(elems, batch...) // append copies the elements out
		}
	} else {
		for {
			e, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			elems = append(elems, e)
		}
	}
	return streamResult{
		elems:       elems,
		warnings:    s.Warnings(),
		quarantined: s.Quarantined(),
		flaps:       s.StateFlaps(),
		elemCounts:  s.SourceElemCounts(),
	}
}

// TestNextBatchMatchesNext: the batch API is a view over the same
// sequence. Batch iteration and element iteration must yield the same
// elements in the same order, interned IDs included (paths are interned
// in serve order, so fresh tables assign the same IDs), and the same
// warnings, quarantine verdicts, flap counts and per-source counts.
func TestNextBatchMatchesNext(t *testing.T) {
	one := runStream(t, false, aspath.NewTable())
	bat := runStream(t, true, aspath.NewTable())
	if len(one.elems) == 0 {
		t.Fatal("fixture produced no elements")
	}
	if len(one.elems) != len(bat.elems) {
		t.Fatalf("element counts differ: %d vs %d", len(one.elems), len(bat.elems))
	}
	for i := range one.elems {
		if !reflect.DeepEqual(one.elems[i], bat.elems[i]) {
			t.Fatalf("elem %d differs:\n  Next:      %+v\n  NextBatch: %+v", i, one.elems[i], bat.elems[i])
		}
	}
	if !reflect.DeepEqual(one.warnings, bat.warnings) {
		t.Errorf("warnings diverge:\n  Next:      %+v\n  NextBatch: %+v", one.warnings, bat.warnings)
	}
	if len(one.quarantined) == 0 || !reflect.DeepEqual(one.quarantined, bat.quarantined) {
		t.Errorf("quarantine: Next %v, NextBatch %v; want the same, non-empty", one.quarantined, bat.quarantined)
	}
	if !reflect.DeepEqual(one.flaps, bat.flaps) {
		t.Errorf("state flaps diverge: %v vs %v", one.flaps, bat.flaps)
	}
	if !reflect.DeepEqual(one.elemCounts, bat.elemCounts) {
		t.Errorf("per-source counts diverge: %v vs %v", one.elemCounts, bat.elemCounts)
	}
}

// TestStreamDecodesOnDemand: a stream decodes the current source one
// record at a time, so serving the first batch opens only the first
// source's reader. SetWorkers is a no-op and the pool clamp is lifted,
// so neither may fan decode out across sources.
func TestStreamDecodesOnDemand(t *testing.T) {
	parallel.ForceParallel(true)
	defer parallel.ForceParallel(false)
	s := NewStream(nil, mixedSources(t)...)
	s.SetWorkers(2)
	if _, err := s.NextBatch(); err != nil {
		t.Fatal(err)
	}
	for i, d := range s.decs[1:] {
		if d.inited {
			t.Errorf("source %d (%s) opened before source 0 was served", i+1, d.collector)
		}
	}
	if d := s.decs[0]; !d.inited || d.done {
		t.Errorf("source 0: inited=%v done=%v, want opened and not drained", d.inited, d.done)
	}
}

// TestStreamInternStamping: with an intern table attached, every RIB
// and announce element carries the ID of its flattened path, resolvable
// through the table to the same sequence Path.Sequence produces; other
// element types stay at Empty.
func TestStreamInternStamping(t *testing.T) {
	table := aspath.NewTable()
	res := runStream(t, true, table)
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
