package mrt

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/aspath"
	"repro/internal/bgp"
)

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{Timestamp: 1000, Type: TypeTableDumpV2, Subtype: SubPeerIndexTable, Body: []byte{1, 2, 3}},
		{Timestamp: 2000, Type: TypeBGP4MP, Subtype: SubMessageAS4, Body: []byte{4, 5}},
		{Timestamp: 3000, Micro: 123456, Type: TypeBGP4MPET, Subtype: SubMessageAS4, Body: []byte{6}},
		{Timestamp: 4000, Type: TypeBGP4MP, Subtype: 9, Body: nil}, // the paper's "unknown subtype 9"
	}
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i, r := range recs {
		g := got[i]
		if g.Timestamp != r.Timestamp || g.Type != r.Type || g.Subtype != r.Subtype || g.Micro != r.Micro {
			t.Errorf("record %d header = %+v, want %+v", i, g, r)
		}
		if !bytes.Equal(g.Body, r.Body) {
			t.Errorf("record %d body = %v, want %v", i, g.Body, r.Body)
		}
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(Record{Type: TypeBGP4MP, Subtype: SubMessage, Body: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()

	// Clean EOF on empty stream.
	if _, err := NewReader(bytes.NewReader(nil)).Next(); err != io.EOF {
		t.Errorf("empty: %v", err)
	}
	// Cut inside the header.
	if _, err := NewReader(bytes.NewReader(full[:5])).Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("header cut: %v", err)
	}
	// Cut inside the body.
	if _, err := NewReader(bytes.NewReader(full[:headerLen+2])).Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("body cut: %v", err)
	}
	// ET record with body too short for microseconds.
	var b2 bytes.Buffer
	w2 := NewWriter(&b2)
	// Hand-craft: declare ET but give 4-byte body so micro consumes it all — valid.
	w2.WriteRecord(Record{Type: TypeBGP4MPET, Micro: 77, Body: nil})
	w2.Flush()
	rec, err := NewReader(&b2).Next()
	if err != nil || rec.Micro != 77 || len(rec.Body) != 0 {
		t.Errorf("ET empty body: %+v, %v", rec, err)
	}
	// Oversized length field.
	bad := append([]byte(nil), full...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrBadRecord) {
		t.Errorf("oversize: %v", err)
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	tbl := &PeerIndexTable{
		CollectorID: netip.MustParseAddr("198.51.100.1"),
		ViewName:    "rrc00",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("192.0.2.10"), ASN: 3356},
			{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("2001:db8::5"), ASN: 400000},
		},
	}
	b, err := tbl.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePeerIndexTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.CollectorID != tbl.CollectorID || got.ViewName != "rrc00" {
		t.Errorf("header = %+v", got)
	}
	if len(got.Peers) != 2 {
		t.Fatalf("peers = %d", len(got.Peers))
	}
	for i := range tbl.Peers {
		if got.Peers[i] != tbl.Peers[i] {
			t.Errorf("peer %d = %+v, want %+v", i, got.Peers[i], tbl.Peers[i])
		}
	}
}

func TestPeerIndexTable2OctetASN(t *testing.T) {
	// Hand-encode a peer with the AS4 bit clear to exercise the 2-octet
	// decode path (older archives).
	var b []byte
	id := netip.MustParseAddr("1.2.3.4").As4()
	b = append(b, id[:]...)
	b = append(b, 0, 0) // empty view name
	b = append(b, 0, 1) // one peer
	b = append(b, 0)    // type: v4 addr, 2-octet ASN
	b = append(b, id[:]...)
	addr := netip.MustParseAddr("9.9.9.9").As4()
	b = append(b, addr[:]...)
	b = append(b, 0x0c, 0xe4) // ASN 3300
	got, err := ParsePeerIndexTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Peers[0].ASN != 3300 {
		t.Errorf("ASN = %d", got.Peers[0].ASN)
	}
}

func TestPeerIndexTableErrors(t *testing.T) {
	if _, err := ParsePeerIndexTable([]byte{1, 2}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	tbl := &PeerIndexTable{CollectorID: netip.MustParseAddr("1.2.3.4"),
		Peers: []Peer{{BGPID: netip.MustParseAddr("1.1.1.1"), Addr: netip.MustParseAddr("2.2.2.2"), ASN: 1}}}
	b, _ := tbl.Marshal()
	for cut := 1; cut < len(b); cut++ {
		if _, err := ParsePeerIndexTable(b[:cut]); err == nil {
			t.Errorf("cut at %d parsed", cut)
		}
	}
	// Trailing garbage rejected.
	if _, err := ParsePeerIndexTable(append(b, 0xff)); !errors.Is(err, ErrBadRecord) {
		t.Errorf("trailing: %v", err)
	}
	bad := &PeerIndexTable{CollectorID: netip.MustParseAddr("2001:db8::1")}
	if _, err := bad.Marshal(); !errors.Is(err, ErrBadRecord) {
		t.Errorf("v6 collector id: %v", err)
	}
}

// Every length the TABLE_DUMP_V2 encoders narrow to 16 bits must be
// range-checked: one past 0xffff is an error, not a wrapped count.
func TestTableDumpLengthOverflow(t *testing.T) {
	id := netip.MustParseAddr("1.2.3.4")
	pfx := netip.MustParsePrefix("10.0.0.0/8")
	peers := make([]Peer, 0x10000)
	for i := range peers {
		peers[i] = Peer{BGPID: id, Addr: netip.MustParseAddr("2.2.2.2"), ASN: 1}
	}
	for name, marshal := range map[string]func() ([]byte, error){
		"view name":       (&PeerIndexTable{CollectorID: id, ViewName: strings.Repeat("v", 0x10000)}).Marshal,
		"peer count":      (&PeerIndexTable{CollectorID: id, Peers: peers}).Marshal,
		"entry count":     (&RIB{Prefix: pfx, Entries: make([]RIBEntry, 0x10000)}).Marshal,
		"attribute block": (&RIB{Prefix: pfx, Entries: []RIBEntry{{Attrs: make([]byte, 0x10000)}}}).Marshal,
	} {
		if _, err := marshal(); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s over 0xffff: err = %v, want ErrBadRecord", name, err)
		}
	}
}

func ribAttrs(t *testing.T, seq aspath.Seq) []byte {
	t.Helper()
	attrs := []bgp.Attr{
		bgp.Origin(bgp.OriginIGP),
		bgp.ASPath{Path: aspath.FromSeq(seq)},
		bgp.NextHop(netip.MustParseAddr("192.0.2.1")),
	}
	b, err := bgp.MarshalAttributes(attrs, bgp.Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRIBRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		prefix  string
		addPath bool
		wantSub uint16
	}{
		{"10.0.0.0/8", false, SubRIBIPv4Unicast},
		{"10.0.0.0/8", true, SubRIBIPv4UnicastAP},
		{"2001:db8::/32", false, SubRIBIPv6Unicast},
		{"2001:db8::/32", true, SubRIBIPv6UnicastAP},
		{"0.0.0.0/0", false, SubRIBIPv4Unicast},
	} {
		rib := &RIB{
			Sequence: 7,
			Prefix:   netip.MustParsePrefix(tc.prefix),
			AddPath:  tc.addPath,
			Entries: []RIBEntry{
				{PeerIndex: 0, Originated: 111, PathID: 9, Attrs: ribAttrs(t, aspath.Seq{1, 2, 3})},
				{PeerIndex: 3, Originated: 222, PathID: 10, Attrs: ribAttrs(t, aspath.Seq{4, 5})},
			},
		}
		if got := rib.Subtype(); got != tc.wantSub {
			t.Errorf("%s addpath=%v: subtype %d, want %d", tc.prefix, tc.addPath, got, tc.wantSub)
		}
		b, err := rib.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// AppendTo leaves the bytes before it intact and appends exactly
		// what Marshal returns.
		head := []byte{0xde, 0xad, 0xbe, 0xef}
		appended, err := rib.AppendTo(slices.Clone(head))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended[:len(head)], head) || !bytes.Equal(appended[len(head):], b) {
			t.Fatalf("%s: AppendTo = %x, want %x then %x", tc.prefix, appended, head, b)
		}
		got, err := ParseRIB(rib.Subtype(), appended[len(head):])
		if err != nil {
			t.Fatalf("%s: %v", tc.prefix, err)
		}
		want := *rib
		want.Entries = slices.Clone(rib.Entries)
		if !tc.addPath {
			for i := range want.Entries {
				want.Entries[i].PathID = 0 // only ADD-PATH subtypes carry it
			}
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s addpath=%v: round trip %+v, want %+v", tc.prefix, tc.addPath, got, &want)
		}
		if got.Sequence != 7 || got.Prefix != rib.Prefix || len(got.Entries) != 2 {
			t.Errorf("%s: got %+v", tc.prefix, got)
		}
		if got.Entries[1].PeerIndex != 3 || got.Entries[1].Originated != 222 {
			t.Errorf("%s: entry = %+v", tc.prefix, got.Entries[1])
		}
		if tc.addPath && got.Entries[0].PathID != 9 {
			t.Errorf("%s: path id lost", tc.prefix)
		}
		if !tc.addPath && got.Entries[0].PathID != 0 {
			t.Errorf("%s: phantom path id", tc.prefix)
		}
		// Attributes decode back to the original path.
		attrs, err := bgp.AppendAttributes(nil, got.Entries[0].Attrs, bgp.Options{AS4: true})
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		for _, a := range attrs {
			if ap, ok := a.(bgp.ASPath); ok {
				s, err := ap.Path.Sequence()
				if err != nil {
					t.Fatal(err)
				}
				if !s.Equal(aspath.Seq{1, 2, 3}) {
					t.Errorf("path = %v", s)
				}
				found = true
			}
		}
		if !found {
			t.Error("AS_PATH missing from decoded entry")
		}
	}
}

func TestParseRIBErrors(t *testing.T) {
	if _, err := ParseRIB(SubRIBGeneric, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("generic: %v", err)
	}
	if _, err := ParseRIB(SubRIBIPv4Unicast, []byte{1}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	// Prefix length byte beyond family max.
	if _, err := ParseRIB(SubRIBIPv4Unicast, []byte{0, 0, 0, 1, 64, 0, 0}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("bits: %v", err)
	}
	rib := &RIB{Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		Entries: []RIBEntry{{Attrs: []byte{1, 2, 3}}}}
	b, _ := rib.Marshal()
	for cut := 5; cut < len(b); cut++ {
		if _, err := ParseRIB(SubRIBIPv4Unicast, b[:cut]); err == nil {
			t.Errorf("cut %d parsed", cut)
		}
	}
	if _, err := ParseRIB(SubRIBIPv4Unicast, append(b, 0)); !errors.Is(err, ErrBadRecord) {
		t.Errorf("trailing: %v", err)
	}
	// A record AppendTo rejects leaves dst as it was.
	dst := []byte{1, 2}
	if out, err := (&RIB{}).AppendTo(dst); !errors.Is(err, ErrBadRecord) || !bytes.Equal(out, dst) {
		t.Errorf("invalid prefix: %x, %v", out, err)
	}
}

func TestBGP4MPMessageRoundTrip(t *testing.T) {
	upd, err := bgp.NewAnnouncement(aspath.Seq{65001, 65002}, netip.MustParseAddr("192.0.2.1"),
		[]netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	data, err := upd.Marshal(bgp.Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		as4, addPath bool
		peer, local  string
	}{
		{true, false, "192.0.2.10", "192.0.2.20"},
		{false, false, "192.0.2.10", "192.0.2.20"},
		{true, true, "192.0.2.10", "192.0.2.20"},
		{true, false, "2001:db8::10", "2001:db8::20"},
	} {
		m := &Message{
			PeerAS: 3356, LocalAS: 65000, Interface: 1,
			PeerAddr: netip.MustParseAddr(tc.peer), LocalAddr: netip.MustParseAddr(tc.local),
			Data: data, AS4: tc.as4, AddPath: tc.addPath,
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got := &Message{}
		if err := ParseMessageInto(got, m.Subtype(), b); err != nil {
			t.Fatal(err)
		}
		if got.PeerAS != 3356 || got.LocalAS != 65000 || got.PeerAddr != m.PeerAddr || got.LocalAddr != m.LocalAddr {
			t.Errorf("%+v: got %+v", tc, got)
		}
		if got.AS4 != tc.as4 || got.AddPath != tc.addPath {
			t.Errorf("%+v: flags %+v", tc, got)
		}
		if err := bgp.ParseUpdateInto(&bgp.Update{}, got.Data, bgp.Options{AS4: true}); err != nil {
			t.Errorf("%+v: inner update: %v", tc, err)
		}
	}
}

func TestBGP4MPMessageErrors(t *testing.T) {
	m := &Message{PeerAS: 100000, LocalAS: 1,
		PeerAddr: netip.MustParseAddr("1.1.1.1"), LocalAddr: netip.MustParseAddr("2.2.2.2")}
	if _, err := m.Marshal(); !errors.Is(err, ErrBadRecord) {
		t.Errorf("4-octet ASN in 2-octet subtype: %v", err)
	}
	mix := &Message{PeerAddr: netip.MustParseAddr("1.1.1.1"), LocalAddr: netip.MustParseAddr("2001:db8::1")}
	if _, err := mix.Marshal(); !errors.Is(err, ErrBadRecord) {
		t.Errorf("family mismatch: %v", err)
	}
	if err := ParseMessageInto(&Message{}, 99, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("subtype: %v", err)
	}
	if err := ParseMessageInto(&Message{}, SubMessage, []byte{1, 2}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	// Bad AFI.
	body := []byte{0, 1, 0, 2, 0, 0, 0, 9}
	if err := ParseMessageInto(&Message{}, SubMessage, body); !errors.Is(err, ErrBadRecord) {
		t.Errorf("afi: %v", err)
	}

	// Every cut of a valid header-and-addresses body (no BGP payload,
	// so the addresses end the body) is truncated, in both ASN widths
	// and both address families, and never panics.
	for _, tc := range []struct {
		as4         bool
		peer, local string
	}{
		{false, "192.0.2.10", "192.0.2.20"},
		{true, "192.0.2.10", "192.0.2.20"},
		{false, "2001:db8::10", "2001:db8::20"},
		{true, "2001:db8::10", "2001:db8::20"},
	} {
		m := &Message{PeerAS: 3356, LocalAS: 65000, AS4: tc.as4,
			PeerAddr: netip.MustParseAddr(tc.peer), LocalAddr: netip.MustParseAddr(tc.local)}
		full, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var into Message
		if err := ParseMessageInto(&into, m.Subtype(), full); err != nil || into.LocalAddr != m.LocalAddr {
			t.Fatalf("%+v: full body: %v (local %v)", tc, err, into.LocalAddr)
		}
		for n := 0; n < len(full); n++ {
			if err := ParseMessageInto(&into, m.Subtype(), full[:n:n]); !errors.Is(err, ErrTruncated) {
				t.Errorf("%+v: body cut to %d of %d bytes: got %v, want ErrTruncated", tc, n, len(full), err)
			}
		}
	}
}

func TestStateChangeRoundTrip(t *testing.T) {
	for _, as4 := range []bool{false, true} {
		sc := &StateChange{
			PeerAS: 3356, LocalAS: 65000,
			PeerAddr: netip.MustParseAddr("192.0.2.10"), LocalAddr: netip.MustParseAddr("192.0.2.20"),
			OldState: StateOpenConfirm, NewState: StateEstablished, AS4: as4,
		}
		b, err := sc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseStateChange(sc.Subtype(), b)
		if err != nil {
			t.Fatal(err)
		}
		if got.OldState != StateOpenConfirm || got.NewState != StateEstablished || got.PeerAS != 3356 {
			t.Errorf("as4=%v: %+v", as4, got)
		}
	}
	if _, err := ParseStateChange(SubMessage, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("subtype: %v", err)
	}
}

func TestRecordClassifiers(t *testing.T) {
	if !(Record{Type: TypeTableDumpV2, Subtype: SubRIBIPv4Unicast}).IsRIB() {
		t.Error("v4 rib")
	}
	if !(Record{Type: TypeTableDumpV2, Subtype: SubRIBIPv6UnicastAP}).IsRIB() {
		t.Error("v6 addpath rib")
	}
	if (Record{Type: TypeTableDumpV2, Subtype: SubPeerIndexTable}).IsRIB() {
		t.Error("peer index is not rib")
	}
	if (Record{Type: TypeBGP4MP, Subtype: SubMessage}).IsRIB() {
		t.Error("bgp4mp is not rib")
	}
}

// TestEndToEndDump exercises a full write-then-read cycle of a small RIB
// dump followed by updates — the shape of a real collector archive.
func TestEndToEndDump(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	pit := &PeerIndexTable{
		CollectorID: netip.MustParseAddr("198.51.100.1"),
		ViewName:    "rrc00",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("192.0.2.10"), ASN: 3356},
		},
	}
	body, err := pit.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(Record{Timestamp: 100, Type: TypeTableDumpV2, Subtype: SubPeerIndexTable, Body: body})

	rib := &RIB{Sequence: 0, Prefix: netip.MustParsePrefix("10.0.0.0/8"),
		Entries: []RIBEntry{{PeerIndex: 0, Originated: 90, Attrs: ribAttrs(t, aspath.Seq{3356, 65001})}}}
	body, err = rib.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(Record{Timestamp: 100, Type: TypeTableDumpV2, Subtype: rib.Subtype(), Body: body})

	upd, _ := bgp.NewAnnouncement(aspath.Seq{3356, 65001}, netip.MustParseAddr("192.0.2.1"),
		[]netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	data, _ := upd.Marshal(bgp.Options{AS4: true})
	msg := &Message{PeerAS: 3356, LocalAS: 12654, PeerAddr: netip.MustParseAddr("192.0.2.10"),
		LocalAddr: netip.MustParseAddr("192.0.2.1"), Data: data, AS4: true}
	body, err = msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord(Record{Timestamp: 160, Type: TypeBGP4MP, Subtype: msg.Subtype(), Body: body})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if _, err := ParsePeerIndexTable(recs[0].Body); err != nil {
		t.Errorf("peer index: %v", err)
	}
	gotRIB, err := ParseRIB(recs[1].Subtype, recs[1].Body)
	if err != nil {
		t.Fatal(err)
	}
	if gotRIB.Prefix.String() != "10.0.0.0/8" {
		t.Errorf("rib prefix = %v", gotRIB.Prefix)
	}
	gotMsg := &Message{}
	if err := ParseMessageInto(gotMsg, recs[2].Subtype, recs[2].Body); err != nil {
		t.Fatal(err)
	}
	u := new(bgp.Update)
	if err := bgp.ParseUpdateInto(u, gotMsg.Data, bgp.Options{AS4: true}); err != nil {
		t.Fatal(err)
	}
	if len(u.Announced) != 1 {
		t.Error("update lost NLRI")
	}
}

// TestRecordRoundTripQuick fuzzes the record framing with random bodies
// and types: whatever is written must read back identically.
func TestRecordRoundTripQuick(t *testing.T) {
	f := func(ts uint32, typ, sub uint16, body []byte) bool {
		if typ == TypeBGP4MPET {
			typ = TypeBGP4MP // ET handled separately below
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(Record{Timestamp: ts, Type: typ, Subtype: sub, Body: body}); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		return got.Timestamp == ts && got.Type == typ && got.Subtype == sub && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// ET variant preserves microseconds.
	fET := func(ts, micro uint32, body []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(Record{Timestamp: ts, Micro: micro, Type: TypeBGP4MPET, Subtype: SubMessageAS4, Body: body}); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		return got.Micro == micro && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(fET, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMultiRecordStreamQuick writes several random records and reads
// them back in order.
func TestMultiRecordStreamQuick(t *testing.T) {
	f := func(bodies [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i, b := range bodies {
			if err := w.WriteRecord(Record{Timestamp: uint32(i), Type: TypeBGP4MP, Subtype: SubMessage, Body: b}); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		recs, err := readAll(&buf)
		if err != nil || len(recs) != len(bodies) {
			return false
		}
		for i, b := range bodies {
			if recs[i].Timestamp != uint32(i) || !bytes.Equal(recs[i].Body, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
