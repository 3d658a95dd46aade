package bgpstream

import (
	"bytes"
	"io"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/aspath"
	"repro/internal/bgp"
	"repro/internal/mrt"
)

// buildArchive assembles an in-memory MRT archive with a peer table, two
// RIB records, one 2-prefix update, one withdraw, a state change, and an
// unknown-subtype record.
func buildArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)

	pit := &mrt.PeerIndexTable{
		CollectorID: netip.MustParseAddr("198.51.100.1"),
		ViewName:    "rrc00",
		Peers: []mrt.Peer{
			{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("192.0.2.10"), ASN: 3356},
			{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("192.0.2.11"), ASN: 7018},
		},
	}
	body, err := pit.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: 100, Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: body})

	mkAttrs := func(seq aspath.Seq) []byte {
		b, err := bgp.MarshalAttributes([]bgp.Attr{
			bgp.Origin(bgp.OriginIGP),
			bgp.ASPath{Path: aspath.FromSeq(seq)},
			bgp.NextHop(netip.MustParseAddr("192.0.2.1")),
			bgp.Communities{bgp.Community(3356, 100)},
		}, bgp.Options{AS4: true})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rib1 := &mrt.RIB{Sequence: 0, Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		Entries: []mrt.RIBEntry{
			{PeerIndex: 0, Attrs: mkAttrs(aspath.Seq{3356, 65001})},
			{PeerIndex: 1, Attrs: mkAttrs(aspath.Seq{7018, 65001})},
		}}
	body, err = rib1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: 100, Type: mrt.TypeTableDumpV2, Subtype: rib1.Subtype(), Body: body})

	rib2 := &mrt.RIB{Sequence: 1, Prefix: netip.MustParsePrefix("2001:db8::/32"),
		Entries: []mrt.RIBEntry{{PeerIndex: 0, Attrs: mkAttrs(aspath.Seq{3356, 65002})}}}
	body, err = rib2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: 100, Type: mrt.TypeTableDumpV2, Subtype: rib2.Subtype(), Body: body})

	upd, err := bgp.NewAnnouncement(aspath.Seq{3356, 65001}, netip.MustParseAddr("192.0.2.1"),
		[]netip.Prefix{netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	data, err := upd.Marshal(bgp.Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	msg := &mrt.Message{PeerAS: 3356, LocalAS: 12654,
		PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
		Data: data, AS4: true}
	body, err = msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: 200, Type: mrt.TypeBGP4MP, Subtype: msg.Subtype(), Body: body})

	wd, err := bgp.NewWithdrawal([]netip.Prefix{netip.MustParsePrefix("10.2.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	data, err = wd.Marshal(bgp.Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	msg2 := &mrt.Message{PeerAS: 7018, LocalAS: 12654,
		PeerAddr: netip.MustParseAddr("192.0.2.11"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
		Data: data, AS4: true}
	body, err = msg2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: 260, Type: mrt.TypeBGP4MPET, Micro: 500, Subtype: msg2.Subtype(), Body: body})

	sc := &mrt.StateChange{PeerAS: 3356, LocalAS: 12654,
		PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
		OldState: mrt.StateEstablished, NewState: mrt.StateIdle, AS4: true}
	body, err = sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(mrt.Record{Timestamp: 300, Type: mrt.TypeBGP4MP, Subtype: sc.Subtype(), Body: body})

	// The paper's artifact: an unknown BGP4MP subtype 9... well, 9 is
	// MESSAGE_AS4_ADDPATH in RFC 8050, so use a truly unknown one (13).
	w.WriteRecord(mrt.Record{Timestamp: 310, Type: mrt.TypeBGP4MP, Subtype: 13, Body: []byte{1, 2, 3}})

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamAll(t *testing.T) {
	data := buildArchive(t)
	s := NewStream(nil, BytesSource("rrc00", data, bgp.Options{}))
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	// 3 RIB rows + 2 announces + 1 withdraw + 1 state = 7.
	if len(elems) != 7 {
		t.Fatalf("got %d elems: %+v", len(elems), elems)
	}
	var counts [5]int
	for _, e := range elems {
		counts[e.Type]++
		if e.Collector != "rrc00" {
			t.Errorf("collector = %q", e.Collector)
		}
	}
	if counts[ElemRIB] != 3 || counts[ElemAnnounce] != 2 || counts[ElemWithdraw] != 1 || counts[ElemState] != 1 {
		t.Errorf("counts = %v", counts)
	}
	// RIB rows carry paths and communities.
	if elems[0].Path.String() != "3356 65001" {
		t.Errorf("rib path = %q", elems[0].Path.String())
	}
	if len(elems[0].Communities) != 1 {
		t.Error("rib communities lost")
	}
	// The two announce elems share a MsgIndex (same UPDATE); the
	// withdraw has a different one.
	var annIdx []int
	var wdIdx int
	for _, e := range elems {
		switch e.Type {
		case ElemAnnounce:
			annIdx = append(annIdx, e.MsgIndex)
		case ElemWithdraw:
			wdIdx = e.MsgIndex
		}
	}
	if len(annIdx) != 2 || annIdx[0] != annIdx[1] {
		t.Errorf("announce MsgIndex = %v", annIdx)
	}
	if wdIdx == annIdx[0] {
		t.Error("withdraw shares MsgIndex with announce")
	}
	// Unknown-subtype warning captured.
	found := false
	for _, w := range s.Warnings() {
		if strings.Contains(w.Reason, "unknown BGP4MP record subtype 13") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %+v", s.Warnings())
	}
}

func TestStreamFilters(t *testing.T) {
	data := buildArchive(t)
	cases := []struct {
		name   string
		filter *Filter
		want   int
	}{
		{"nil", nil, 7},
		{"announce only", &Filter{Types: map[ElemType]bool{ElemAnnounce: true}}, 2},
		{"peer 7018", &Filter{PeerASNs: map[uint32]bool{7018: true}}, 2},
		{"collector miss", &Filter{Collectors: map[string]bool{"rrc01": true}}, 0},
		{"time window", &Filter{StartTime: 150, EndTime: 260}, 3},
		{"v6 only", &Filter{V6Only: true}, 1},
		{"v4 only", &Filter{V4Only: true}, 5}, // state elem has no prefix
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream(tc.filter, BytesSource("rrc00", data, bgp.Options{}))
			elems, err := s.All()
			if err != nil {
				t.Fatal(err)
			}
			if len(elems) != tc.want {
				t.Errorf("got %d elems, want %d", len(elems), tc.want)
			}
		})
	}
}

func TestStreamMultipleSources(t *testing.T) {
	data := buildArchive(t)
	s := NewStream(nil,
		BytesSource("rrc00", data, bgp.Options{}),
		BytesSource("route-views2", buildArchive(t), bgp.Options{}),
	)
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 14 {
		t.Fatalf("got %d elems", len(elems))
	}
	if elems[0].Collector != "rrc00" || elems[13].Collector != "route-views2" {
		t.Error("collector attribution wrong across sources")
	}
	// MsgIndex remains unique across sources.
	seen := map[int]string{}
	for _, e := range elems {
		if c, ok := seen[e.MsgIndex]; ok && c != e.Collector {
			t.Fatalf("MsgIndex %d reused across collectors", e.MsgIndex)
		}
		seen[e.MsgIndex] = e.Collector
	}
}

func TestStreamBadPeerIndex(t *testing.T) {
	// RIB record referencing a peer index that doesn't exist.
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{CollectorID: netip.MustParseAddr("1.2.3.4")}
	body, _ := pit.Marshal()
	w.WriteRecord(mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: mrt.SubPeerIndexTable, Body: body})
	attrs, _ := bgp.MarshalAttributes([]bgp.Attr{bgp.Origin(0)}, bgp.Options{AS4: true})
	rib := &mrt.RIB{Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		Entries: []mrt.RIBEntry{{PeerIndex: 5, Attrs: attrs}}}
	body, _ = rib.Marshal()
	w.WriteRecord(mrt.Record{Type: mrt.TypeTableDumpV2, Subtype: rib.Subtype(), Body: body})
	w.Flush()

	s := NewStream(nil, BytesSource("x", buf.Bytes(), bgp.Options{}))
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 0 {
		t.Errorf("got %d elems", len(elems))
	}
	if len(s.Warnings()) == 0 {
		t.Error("no warning for bad peer index")
	}
}

func TestStreamCorruptSourceRecovers(t *testing.T) {
	good := buildArchive(t)
	corrupt := good[:len(good)-3] // cut mid-record
	s := NewStream(nil,
		BytesSource("bad", corrupt, bgp.Options{}),
		BytesSource("good", good, bgp.Options{}),
	)
	elems, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	// The good source must still be fully read.
	goodCount := 0
	for _, e := range elems {
		if e.Collector == "good" {
			goodCount++
		}
	}
	if goodCount != 7 {
		t.Errorf("good source yielded %d elems", goodCount)
	}
	found := false
	for _, w := range s.Warnings() {
		if w.Collector == "bad" && strings.Contains(w.Reason, "record error") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %+v", s.Warnings())
	}
}

// TestAddPathMismatchWarning reproduces the paper's §A8.3.1 scenario:
// a peer sends ADD-PATH-encoded updates but the record subtype claims
// plain encoding, producing parse warnings attributable to the peer.
func TestAddPathMismatchWarning(t *testing.T) {
	upd, err := bgp.NewAnnouncement(aspath.Seq{65001}, netip.MustParseAddr("192.0.2.1"),
		[]netip.Prefix{netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.1.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	// Encode WITH AddPath...
	data, err := upd.Marshal(bgp.Options{AS4: true, AddPath: true})
	if err != nil {
		t.Fatal(err)
	}
	// ...but wrap in a non-ADD-PATH subtype, like a confused collector.
	msg := &mrt.Message{PeerAS: 136557, LocalAS: 12654,
		PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.1"),
		Data: data, AS4: true}
	body, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	w.WriteRecord(mrt.Record{Timestamp: 1, Type: mrt.TypeBGP4MP, Subtype: mrt.SubMessageAS4, Body: body})
	w.Flush()

	s := NewStream(nil, BytesSource("route-views.perth", buf.Bytes(), bgp.Options{}))
	elems, _ := s.All()
	// The misparse is detectable either as a parse warning or as spurious
	// records: reading ADD-PATH bytes as plain NLRI turns each 4-byte path
	// ID into phantom prefixes (typically 0.0.0.0/0 runs). What must NOT
	// happen is a clean parse yielding exactly the true announcement set.
	got := map[string]bool{}
	for _, e := range elems {
		if e.Type == ElemAnnounce {
			got[e.Prefix.String()] = true
		}
	}
	cleanTruth := len(got) == 2 && got["10.0.0.0/8"] && got["10.1.0.0/16"]
	if cleanTruth && len(s.Warnings()) == 0 {
		t.Fatal("ADD-PATH mismatch was undetectable: clean parse of the true prefixes")
	}
	if len(s.Warnings()) == 0 && len(elems) == 0 {
		t.Error("mismatch produced neither elems nor warnings")
	}
	for _, wn := range s.Warnings() {
		if wn.PeerASN != 0 && wn.PeerASN != 136557 {
			t.Errorf("warning attributed to wrong peer: %+v", wn)
		}
	}
}

func TestElemTypeString(t *testing.T) {
	if ElemRIB.String() != "R" || ElemAnnounce.String() != "A" ||
		ElemWithdraw.String() != "W" || ElemState.String() != "S" || ElemType(9).String() != "?" {
		t.Error("ElemType strings wrong")
	}
}

func TestStreamEOFStable(t *testing.T) {
	s := NewStream(nil)
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("empty stream: %v", err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Error("EOF not sticky")
	}
}

// TestEmptyBytesSource: a byte-backed source over a nil archive — what
// bytes.Buffer.Bytes returns for a collector that got no records — is an
// empty archive, not a nil reader, at either decode mode.
func TestEmptyBytesSource(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := NewStream(nil, BytesSource("rrc00", nil, bgp.Options{}))
		s.SetWorkers(workers)
		elems, err := s.All()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(elems) != 0 || len(s.Warnings()) != 0 {
			t.Errorf("workers=%d: %d elems, %d warnings; want none", workers, len(elems), len(s.Warnings()))
		}
		if _, err := s.Next(); err != io.EOF {
			t.Errorf("workers=%d: Next after drain = %v, want io.EOF", workers, err)
		}
	}
}
