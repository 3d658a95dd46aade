package bgpstream

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/obs"
)

// marshalRIBRecord builds one valid RIB record for 10.<seq>.0.0/16
// referencing peer index 0.
func marshalRIBRecord(t *testing.T, buf *bytes.Buffer, seq uint32) {
	t.Helper()
	rib := &mrt.RIB{
		Sequence: seq,
		Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(seq), 0, 0}), 16),
		Entries:  []mrt.RIBEntry{{PeerIndex: 0, Originated: 1000}},
	}
	body, err := rib.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	writeRecord(t, buf, mrt.Record{Timestamp: 1000, Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: body})
}

func drain(t *testing.T, s *Stream) []Elem {
	t.Helper()
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	return elems
}

func TestResyncRecoversMidSource(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 1)})
	marshalRIBRecord(t, &buf, 1)
	// Garbage with an absurd claimed length: the reader errors, then
	// must scan forward and recover the next record instead of
	// abandoning the source.
	buf.Write(bytes.Repeat([]byte{0xff}, 20))
	marshalRIBRecord(t, &buf, 2)

	reg := obs.NewRegistry()
	s := NewStream(nil, BytesSource("rrc01", buf.Bytes(), bgp.Options{}))
	s.SetMetrics(reg)
	elems := drain(t, s)
	if len(elems) != 2 {
		t.Fatalf("decoded %d elements, want 2 (resync should recover the tail)", len(elems))
	}
	var codes []string
	for _, w := range s.Warnings() {
		codes = append(codes, w.Code)
	}
	if len(codes) != 2 || codes[0] != WarnRecordError || codes[1] != WarnResync {
		t.Fatalf("warnings = %v, want [record-error resync]", codes)
	}
	st := s.SourceStats()["rrc01"]
	if st.Resyncs != 1 || st.Records != 3 || st.Skipped != 1 {
		t.Fatalf("source stats = %+v", st)
	}
	m := reg.Snapshot()
	if m.CounterValue("bgpstream.resyncs") != 1 {
		t.Errorf("resyncs counter = %d, want 1", m.CounterValue("bgpstream.resyncs"))
	}
	if m.CounterValue("bgpstream.resync_bytes") != 8 {
		t.Errorf("resync_bytes counter = %d, want 8 (12 of 20 garbage bytes ate the header)", m.CounterValue("bgpstream.resync_bytes"))
	}
	if len(s.Quarantined()) != 0 {
		t.Errorf("healthy source quarantined: %v", s.Quarantined())
	}
}

func TestQuarantineOnSkipRatio(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 1)})
	for i := 0; i < 20; i++ {
		// Framing-valid records whose bodies fail to parse: each one
		// warns and counts against the degradation budget.
		writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubRIBIPv4Unicast, Body: []byte{1}})
	}

	reg := obs.NewRegistry()
	s := NewStream(nil, BytesSource("rrc13", buf.Bytes(), bgp.Options{}))
	s.SetMetrics(reg)
	elems := drain(t, s)
	if len(elems) != 0 {
		t.Fatalf("decoded %d elements from garbage", len(elems))
	}
	if q := s.Quarantined(); len(q) != 1 || q[0] != "rrc13" {
		t.Fatalf("Quarantined() = %v, want [rrc13]", q)
	}
	last := s.Warnings()[len(s.Warnings())-1]
	if last.Code != WarnQuarantine {
		t.Fatalf("last warning = %+v, want %s", last, WarnQuarantine)
	}
	m := reg.Snapshot()
	if m.CounterValue("bgpstream.source_quarantined", "collector", "rrc13") != 1 {
		t.Error("source_quarantined counter did not fire")
	}
	st := s.SourceStats()["rrc13"]
	if st.Records != 21 || st.Skipped != 20 {
		t.Fatalf("source stats = %+v", st)
	}
}

func TestNoQuarantineBelowMinRecords(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 1)})
	for i := 0; i < 3; i++ {
		writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubRIBIPv4Unicast, Body: []byte{1}})
	}
	s := NewStream(nil, BytesSource("rrc13", buf.Bytes(), bgp.Options{}))
	drain(t, s)
	if q := s.Quarantined(); len(q) != 0 {
		t.Fatalf("small archive quarantined: %v (budget must not condemn short tails)", q)
	}
}

func TestStateFlapsCounts(t *testing.T) {
	var buf bytes.Buffer
	mk := func(asn uint32) {
		sc := &mrt.StateChange{
			PeerAS: asn, LocalAS: 12654,
			PeerAddr:  netip.MustParseAddr("192.0.2.10"),
			LocalAddr: netip.MustParseAddr("192.0.2.1"),
			AS4:       true,
			OldState:  mrt.StateEstablished, NewState: mrt.StateIdle,
		}
		body, err := sc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		writeRecord(t, &buf, mrt.Record{Timestamp: 1000, Type: mrt.TypeBGP4MP, Subtype: sc.Subtype(), Body: body})
	}
	for i := 0; i < 5; i++ {
		mk(65001)
	}
	mk(65002)
	s := NewStream(nil, BytesSource("rrc01", buf.Bytes(), bgp.Options{}))
	elems := drain(t, s)
	if len(elems) != 6 {
		t.Fatalf("decoded %d elements, want 6", len(elems))
	}
	flaps := s.StateFlaps()
	if flaps[65001] != 5 || flaps[65002] != 1 {
		t.Fatalf("StateFlaps = %v", flaps)
	}
}

func TestSequenceGapWarning(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: marshalPIT(t, 1)})
	// Sequences 0, 1, then 5: the jump means records 2..4 vanished even
	// though every surviving record is well-formed.
	marshalRIBRecord(t, &buf, 0)
	marshalRIBRecord(t, &buf, 1)
	marshalRIBRecord(t, &buf, 5)
	s := NewStream(nil, BytesSource("rrc01", buf.Bytes(), bgp.Options{}))
	elems := drain(t, s)
	if len(elems) != 3 {
		t.Fatalf("decoded %d elements, want 3 (gap must not drop records)", len(elems))
	}
	var gaps int
	for _, w := range s.Warnings() {
		if w.Code == WarnSequenceGap {
			gaps++
		}
	}
	if gaps != 1 {
		t.Fatalf("warnings = %+v, want exactly 1 sequence-gap", s.Warnings())
	}
	// The gap is a signal, not a skip: the degradation budget is untouched.
	if st := s.SourceStats()["rrc01"]; st.Skipped != 0 {
		t.Errorf("sequence gap counted as a skip: %+v", st)
	}
	if len(s.Quarantined()) != 0 {
		t.Errorf("sequence gap caused quarantine: %v", s.Quarantined())
	}
}
