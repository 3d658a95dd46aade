package bgp

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/aspath"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestHeaderRoundTrip(t *testing.T) {
	buf := make([]byte, HeaderLen)
	putHeader(buf, MsgUpdate, 100)
	h, err := ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgUpdate || h.Len != 100 {
		t.Errorf("header = %+v", h)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	short := make([]byte, 10)
	if _, err := ParseHeader(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	buf := make([]byte, HeaderLen)
	putHeader(buf, MsgUpdate, 100)
	buf[3] = 0 // corrupt marker
	if _, err := ParseHeader(buf); !errors.Is(err, ErrBadMarker) {
		t.Errorf("marker: %v", err)
	}
	putHeader(buf, MsgUpdate, 10) // length below header size
	if _, err := ParseHeader(buf); !errors.Is(err, ErrBadLength) {
		t.Errorf("length: %v", err)
	}
	putHeader(buf, 9, 100) // bad type
	if _, err := ParseHeader(buf); !errors.Is(err, ErrBadType) {
		t.Errorf("type: %v", err)
	}
}

func TestNLRIRoundTrip(t *testing.T) {
	cases := []struct {
		p       string
		v6      bool
		addPath bool
		pathID  uint32
	}{
		{"10.0.0.0/8", false, false, 0},
		{"10.1.0.0/16", false, false, 0},
		{"192.168.7.0/24", false, false, 0},
		{"0.0.0.0/0", false, false, 0},
		{"10.0.0.1/32", false, false, 0},
		{"2001:db8::/32", true, false, 0},
		{"2001:db8:1:2::/64", true, false, 0},
		{"::/0", true, false, 0},
		{"10.0.0.0/8", false, true, 42},
		{"2001:db8::/48", true, true, 7},
	}
	for _, tc := range cases {
		in := NLRI{Prefix: mustPrefix(tc.p), PathID: tc.pathID}
		b, err := appendNLRI(nil, in, tc.addPath)
		if err != nil {
			t.Fatalf("%s: %v", tc.p, err)
		}
		out, err := parseNLRI(b, tc.v6, tc.addPath)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.p, err)
		}
		if len(out) != 1 || out[0] != in {
			t.Errorf("%s: round trip = %+v", tc.p, out)
		}
	}
}

func TestNLRIMultiple(t *testing.T) {
	var b []byte
	var err error
	want := []string{"10.0.0.0/8", "172.16.0.0/12", "192.168.1.0/24"}
	for _, p := range want {
		b, err = appendNLRI(b, NLRI{Prefix: mustPrefix(p)}, false)
		if err != nil {
			t.Fatal(err)
		}
	}
	out, err := parseNLRI(b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d entries", len(out))
	}
	for i, p := range want {
		if out[i].Prefix.String() != p {
			t.Errorf("entry %d = %v, want %s", i, out[i].Prefix, p)
		}
	}
}

func TestNLRIErrors(t *testing.T) {
	if _, err := appendNLRI(nil, NLRI{}, false); !errors.Is(err, ErrBadNLRI) {
		t.Errorf("invalid prefix: %v", err)
	}
	// Prefix length byte too big for family.
	if _, err := parseNLRI([]byte{33, 1, 2, 3, 4, 5}, false, false); !errors.Is(err, ErrBadNLRI) {
		t.Errorf("oversized v4 bits: %v", err)
	}
	// Truncated address bytes.
	if _, err := parseNLRI([]byte{24, 10}, false, false); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	// ADD-PATH needs 5 bytes minimum.
	if _, err := parseNLRI([]byte{0, 0, 1}, false, true); !errors.Is(err, ErrTruncated) {
		t.Errorf("addpath truncated: %v", err)
	}
	// Nonzero trailing bits get masked, not rejected.
	out, err := parseNLRI([]byte{9, 10, 0xff}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Prefix.String() != "10.128.0.0/9" {
		t.Errorf("masking: %v", out[0].Prefix)
	}
}

// TestAddPathMisparse documents the collector artifact the paper
// describes (§A8.3.1): ADD-PATH-encoded NLRI read by a non-ADD-PATH
// parser either errors out or yields garbage prefixes.
func TestAddPathMisparse(t *testing.T) {
	b, err := appendNLRI(nil, NLRI{Prefix: mustPrefix("10.0.0.0/8"), PathID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseNLRI(b, false, false)
	if err == nil {
		// If it parses, it must NOT be the real prefix.
		for _, n := range out {
			if n.Prefix.String() == "10.0.0.0/8" {
				t.Error("misparse accidentally produced the true prefix")
			}
		}
	}
}

func TestASPathDataRoundTrip(t *testing.T) {
	p := aspath.Path{Segments: []aspath.Segment{
		{Type: aspath.SegSequence, ASNs: []uint32{7018, 3356, 65001}},
		{Type: aspath.SegSet, ASNs: []uint32{100, 200}},
	}}
	for _, four := range []bool{true, false} {
		b, err := appendASPathData(nil, p, four)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseASPathData(b, four)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != p.String() {
			t.Errorf("four=%v: %q != %q", four, got.String(), p.String())
		}
	}
}

func TestASPath2OctetTruncation(t *testing.T) {
	p := aspath.Path{Segments: []aspath.Segment{
		{Type: aspath.SegSequence, ASNs: []uint32{70000, 3356}},
	}}
	b, err := appendASPathData(nil, p, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseASPathData(b, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{AS_TRANS, 3356}
	for i, a := range got.Segments[0].ASNs {
		if a != want[i] {
			t.Errorf("ASN %d = %d, want %d", i, a, want[i])
		}
	}
}

func TestASPathDataErrors(t *testing.T) {
	if _, err := parseASPathData([]byte{2}, false); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
	if _, err := parseASPathData([]byte{9, 1, 0, 1}, false); !errors.Is(err, ErrBadAttr) {
		t.Errorf("bad segment type: %v", err)
	}
	if _, err := parseASPathData([]byte{2, 0}, false); !errors.Is(err, ErrBadAttr) {
		t.Errorf("zero count: %v", err)
	}
	if _, err := parseASPathData([]byte{2, 3, 0, 1}, false); !errors.Is(err, ErrTruncated) {
		t.Errorf("short ASNs: %v", err)
	}
	bad := aspath.Path{Segments: []aspath.Segment{{Type: aspath.SegmentType(7), ASNs: []uint32{1}}}}
	if _, err := appendASPathData(nil, bad, true); !errors.Is(err, ErrBadAttr) {
		t.Errorf("encode bad type: %v", err)
	}
	empty := aspath.Path{Segments: []aspath.Segment{{Type: aspath.SegSequence}}}
	if _, err := appendASPathData(nil, empty, true); !errors.Is(err, ErrBadAttr) {
		t.Errorf("encode empty segment: %v", err)
	}
}

func attrsRoundTrip(t *testing.T, attrs []Attr, opt Options) []Attr {
	t.Helper()
	b, err := MarshalAttributes(attrs, opt)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := AppendAttributes(nil, b, opt)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != len(attrs) {
		t.Fatalf("got %d attrs, want %d", len(got), len(attrs))
	}
	return got
}

func TestAttrRoundTripAll(t *testing.T) {
	nh := netip.MustParseAddr("192.0.2.1")
	v6nh := netip.MustParseAddr("2001:db8::1").As16()
	attrs := []Attr{
		Origin(OriginEGP),
		ASPath{Path: aspath.FromSeq(aspath.Seq{7018, 3356, 65001})},
		NextHop(nh),
		MED(50),
		LocalPref(120),
		AtomicAggregate{},
		Aggregator{ASN: 65001, Addr: nh},
		Communities{3257<<16 | 2990, 3257<<16 | 2592},
		MPReach{AFI: AFIIPv6, SAFI: SAFIUnicast, NextHop: v6nh[:], NLRI: []NLRI{{Prefix: mustPrefix("2001:db8::/32")}}},
		MPUnreach{AFI: AFIIPv6, SAFI: SAFIUnicast, NLRI: []NLRI{{Prefix: mustPrefix("2001:db8:ffff::/48")}}},
		LargeCommunities{{Global: 3356, Local1: 1, Local2: 2}},
	}
	for _, opt := range []Options{{AS4: true}, {AS4: false}} {
		got := attrsRoundTrip(t, attrs, opt)
		if o := got[0].(Origin); uint8(o) != OriginEGP {
			t.Errorf("origin = %v", o)
		}
		ap := got[1].(ASPath)
		if ap.Path.String() != "7018 3356 65001" {
			t.Errorf("aspath = %q", ap.Path.String())
		}
		if a := netip.Addr(got[2].(NextHop)); a != nh {
			t.Errorf("nexthop = %v", a)
		}
		if m := got[3].(MED); m != 50 {
			t.Errorf("med = %v", m)
		}
		if lp := got[4].(LocalPref); lp != 120 {
			t.Errorf("localpref = %v", lp)
		}
		if _, ok := got[5].(AtomicAggregate); !ok {
			t.Error("atomic aggregate lost")
		}
		if ag := got[6].(Aggregator); ag.ASN != 65001 || ag.Addr != nh {
			t.Errorf("aggregator = %+v", ag)
		}
		cs := got[7].(Communities)
		if len(cs) != 2 || cs[0] != 3257<<16|2990 {
			t.Errorf("communities = %v", cs)
		}
		mr := got[8].(MPReach)
		if mr.AFI != AFIIPv6 || len(mr.NLRI) != 1 || mr.NLRI[0].Prefix.String() != "2001:db8::/32" {
			t.Errorf("mpreach = %+v", mr)
		}
		mu := got[9].(MPUnreach)
		if len(mu.NLRI) != 1 || mu.NLRI[0].Prefix.String() != "2001:db8:ffff::/48" {
			t.Errorf("mpunreach = %+v", mu)
		}
		lc := got[10].(LargeCommunities)
		if len(lc) != 1 || lc[0].Global != 3356 {
			t.Errorf("large communities = %v", lc)
		}
	}
}

func TestAggregator4Octet(t *testing.T) {
	addr := netip.MustParseAddr("203.0.113.9")
	attrs := []Attr{Aggregator{ASN: 400000, Addr: addr}}
	// AS4 session keeps the full ASN.
	got := attrsRoundTrip(t, attrs, Options{AS4: true})
	if ag := got[0].(Aggregator); ag.ASN != 400000 {
		t.Errorf("AS4 aggregator = %d", ag.ASN)
	}
	// 2-octet session degrades to AS_TRANS.
	got = attrsRoundTrip(t, attrs, Options{})
	if ag := got[0].(Aggregator); ag.ASN != AS_TRANS {
		t.Errorf("2-octet aggregator = %d", ag.ASN)
	}
}

func TestUnknownAttrPreserved(t *testing.T) {
	u := Unknown{Flags: flagOptional | flagTransitive, TypeCode: 99, Data: []byte{1, 2, 3}}
	got := attrsRoundTrip(t, []Attr{u}, Options{})
	gu := got[0].(Unknown)
	if gu.TypeCode != 99 || string(gu.Data) != string([]byte{1, 2, 3}) {
		t.Errorf("unknown = %+v", gu)
	}
	// Large unknown uses extended length.
	big := Unknown{Flags: flagOptional, TypeCode: 77, Data: make([]byte, 300)}
	got = attrsRoundTrip(t, []Attr{big}, Options{})
	if len(got[0].(Unknown).Data) != 300 {
		t.Error("extended-length unknown lost data")
	}
}

func TestExtendedLengthASPath(t *testing.T) {
	long := make([]uint32, 200) // 200*4 = 800 bytes > 255
	for i := range long {
		long[i] = uint32(i + 1)
	}
	attrs := []Attr{ASPath{Path: aspath.FromSeq(long)}}
	got := attrsRoundTrip(t, attrs, Options{AS4: true})
	seq, err := got[0].(ASPath).Path.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 200 || seq[199] != 200 {
		t.Errorf("long path mangled: len=%d", len(seq))
	}
}

func TestParseAttrsErrors(t *testing.T) {
	if _, err := parseAttrs(nil, []byte{0x40}, Options{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
	if _, err := parseAttrs(nil, []byte{0x50, 1}, Options{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short ext header: %v", err)
	}
	if _, err := parseAttrs(nil, []byte{0x40, 1, 5, 0}, Options{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: %v", err)
	}
	// Duplicate attribute.
	b, _ := MarshalAttributes([]Attr{Origin(0)}, Options{})
	b = append(b, b...)
	if _, err := parseAttrs(nil, b, Options{}); !errors.Is(err, ErrDupAttr) {
		t.Errorf("dup: %v", err)
	}
	// Bad ORIGIN value / length.
	if _, err := parseAttrs(nil, []byte{0x40, 1, 1, 9}, Options{}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("bad origin: %v", err)
	}
	if _, err := parseAttrs(nil, []byte{0x40, 1, 2, 0, 0}, Options{}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("origin len: %v", err)
	}
	// Bad lengths for fixed-size attrs.
	for _, tc := range [][]byte{
		{0x40, 3, 3, 1, 2, 3},        // NEXT_HOP len 3
		{0x80, 4, 2, 0, 0},           // MED len 2
		{0x40, 5, 1, 0},              // LOCAL_PREF len 1
		{0x40, 6, 1, 0},              // ATOMIC_AGGREGATE len 1
		{0xc0, 7, 3, 0, 0, 0},        // AGGREGATOR len 3
		{0xc0, 8, 3, 0, 0, 0},        // COMMUNITIES not multiple of 4
		{0xc0, 32, 5, 0, 0, 0, 0, 0}, // LARGE not multiple of 12
		{0xc0, 18, 3, 0, 0, 0},       // AS4_AGGREGATOR len 3
	} {
		if _, err := parseAttrs(nil, tc, Options{}); !errors.Is(err, ErrBadAttr) {
			t.Errorf("attr %d: %v", tc[1], err)
		}
	}
	// Truncated MP_REACH.
	if _, err := parseAttrs(nil, []byte{0x80, 14, 2, 0, 2}, Options{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("mp_reach: %v", err)
	}
	if _, err := parseAttrs(nil, []byte{0x80, 15, 2, 0, 2}, Options{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("mp_unreach: %v", err)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	nh := netip.MustParseAddr("192.0.2.1")
	u, err := NewAnnouncement(aspath.Seq{64500, 64501}, nh, []netip.Prefix{
		mustPrefix("10.0.0.0/8"), mustPrefix("10.1.0.0/16"),
	})
	if err != nil {
		t.Fatal(err)
	}
	u.Withdrawn = []NLRI{{Prefix: mustPrefix("172.16.0.0/12")}}
	for _, opt := range []Options{{}, {AS4: true}, {AddPath: true}, {AS4: true, AddPath: true}} {
		b, err := u.Marshal(opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		got := new(Update)
		if err := ParseUpdateInto(got, b, opt); err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if len(got.Announced) != 2 || got.Announced[0].Prefix.String() != "10.0.0.0/8" {
			t.Errorf("announced = %+v", got.Announced)
		}
		if len(got.Withdrawn) != 1 || got.Withdrawn[0].Prefix.String() != "172.16.0.0/12" {
			t.Errorf("withdrawn = %+v", got.Withdrawn)
		}
		p, ok := got.ASPathAttr()
		if !ok {
			t.Fatal("no AS path")
		}
		seq, err := p.Sequence()
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Equal(aspath.Seq{64500, 64501}) {
			t.Errorf("path = %v", seq)
		}
	}
}

func TestUpdateIPv6(t *testing.T) {
	nh := netip.MustParseAddr("2001:db8::1")
	u, err := NewAnnouncement(aspath.Seq{64500, 64501}, nh, []netip.Prefix{
		mustPrefix("2001:db8:a::/48"), mustPrefix("2001:db8:b::/48"),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.Marshal(Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	got := new(Update)
	if err := ParseUpdateInto(got, b, Options{AS4: true}); err != nil {
		t.Fatal(err)
	}
	mr, _ := got.Attr(AttrTypeMPReach).(MPReach)
	if reach := mr.NLRI; len(reach) != 2 || reach[0].Prefix.String() != "2001:db8:a::/48" {
		t.Errorf("v6 reachable = %+v", reach)
	}
	if len(got.Announced) != 0 {
		t.Error("v6 prefixes leaked into top-level NLRI")
	}

	w, err := NewWithdrawal([]netip.Prefix{mustPrefix("2001:db8:a::/48")})
	if err != nil {
		t.Fatal(err)
	}
	b, err = w.Marshal(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ParseUpdateInto(got, b, Options{}); err != nil {
		t.Fatal(err)
	}
	mu, _ := got.Attr(AttrTypeMPUnreach).(MPUnreach)
	if un := mu.NLRI; len(un) != 1 || un[0].Prefix.String() != "2001:db8:a::/48" {
		t.Errorf("v6 unreachable = %+v", un)
	}
}

func TestNewAnnouncementErrors(t *testing.T) {
	nh := netip.MustParseAddr("192.0.2.1")
	if _, err := NewAnnouncement(aspath.Seq{1}, nh, nil); err == nil {
		t.Error("empty prefixes accepted")
	}
	mixed := []netip.Prefix{mustPrefix("10.0.0.0/8"), mustPrefix("2001:db8::/32")}
	if _, err := NewAnnouncement(aspath.Seq{1}, nh, mixed); err == nil {
		t.Error("mixed families accepted")
	}
	if _, err := NewWithdrawal(nil); err == nil {
		t.Error("empty withdrawal accepted")
	}
	if _, err := NewWithdrawal(mixed); err == nil {
		t.Error("mixed withdrawal accepted")
	}
}

func TestAS4PathReconciliation(t *testing.T) {
	// A 2-octet session: path contains a 4-octet ASN; Marshal must add
	// AS4_PATH, and ParseUpdateInto must reconcile back to the true path.
	nh := netip.MustParseAddr("192.0.2.1")
	truth := aspath.Seq{64500, 400000, 64501}
	u, err := NewAnnouncement(truth, nh, []netip.Prefix{mustPrefix("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.Marshal(Options{AS4: false})
	if err != nil {
		t.Fatal(err)
	}
	got := new(Update)
	if err := ParseUpdateInto(got, b, Options{AS4: false}); err != nil {
		t.Fatal(err)
	}
	if got.Attr(AttrTypeAS4Path) == nil {
		t.Fatal("AS4_PATH not emitted")
	}
	p, ok := got.ASPathAttr()
	if !ok {
		t.Fatal("no path")
	}
	seq, err := p.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(truth) {
		t.Errorf("reconciled = %v, want %v", seq, truth)
	}
}

func TestReconcileAS4LongerIgnored(t *testing.T) {
	short := aspath.FromSeq(aspath.Seq{1, 2})
	long4 := aspath.FromSeq(aspath.Seq{9, 9, 9})
	got := reconcileAS4(short, long4)
	if got.String() != short.String() {
		t.Errorf("longer AS4_PATH should be ignored, got %q", got.String())
	}
}

func TestReconcileAS4Partial(t *testing.T) {
	// Old speaker prepended AS_TRANS twice; AS4_PATH covers the tail.
	path := aspath.FromSeq(aspath.Seq{100, AS_TRANS, 200})
	path4 := aspath.FromSeq(aspath.Seq{400000, 200})
	got := reconcileAS4(path, path4)
	seq, err := got.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(aspath.Seq{100, 400000, 200}) {
		t.Errorf("partial reconcile = %v", seq)
	}
}

func TestReconcileAS4WithSet(t *testing.T) {
	// AS_PATH has a set that counts as one hop.
	path := aspath.Path{Segments: []aspath.Segment{
		{Type: aspath.SegSequence, ASNs: []uint32{100}},
		{Type: aspath.SegSet, ASNs: []uint32{5, 6}},
		{Type: aspath.SegSequence, ASNs: []uint32{200}},
	}}
	path4 := aspath.FromSeq(aspath.Seq{999})
	got := reconcileAS4(path, path4)
	if got.String() != "100 [5 6] 999" {
		t.Errorf("set reconcile = %q", got.String())
	}
}

// KEEPALIVEs are legal in update archives and are skipped by type, so
// the header parser must accept the bare 19-byte message.
func TestKeepalive(t *testing.T) {
	b := append(bytes.Repeat([]byte{0xff}, 16), 0x00, 0x13, 0x04)
	h, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgKeepalive || int(h.Len) != HeaderLen {
		t.Errorf("keepalive header = %+v", h)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	if err := ParseUpdateInto(&Update{}, []byte{1, 2}, Options{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	buf := make([]byte, HeaderLen)
	putHeader(buf, MsgKeepalive, HeaderLen)
	if err := ParseUpdateInto(&Update{}, buf, Options{}); !errors.Is(err, ErrBadType) {
		t.Errorf("keepalive: %v", err)
	}
	putHeader(buf, MsgUpdate, HeaderLen+10)
	if err := ParseUpdateInto(&Update{}, buf, Options{}); !errors.Is(err, ErrTruncated) {
		t.Errorf("claims more: %v", err)
	}
	// Body truncation points.
	mk := func(body []byte) []byte {
		m := make([]byte, HeaderLen+len(body))
		putHeader(m, MsgUpdate, len(m))
		copy(m[HeaderLen:], body)
		return m
	}
	for _, body := range [][]byte{
		{0},          // withdrawn length cut
		{0, 5},       // withdrawn routes cut
		{0, 0, 0},    // attr length cut
		{0, 0, 0, 9}, // attrs cut
	} {
		if err := ParseUpdateInto(&Update{}, mk(body), Options{}); !errors.Is(err, ErrTruncated) {
			t.Errorf("body %v: %v", body, err)
		}
	}
}

func TestMarshalSizeLimit(t *testing.T) {
	// Enough /24s to blow past 4096 bytes.
	var prefixes []netip.Prefix
	for i := 0; i < 1200; i++ {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		prefixes = append(prefixes, netip.PrefixFrom(a, 24))
	}
	u, err := NewAnnouncement(aspath.Seq{1}, netip.MustParseAddr("192.0.2.1"), prefixes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Marshal(Options{}); !errors.Is(err, ErrBadLength) {
		t.Errorf("oversize: %v", err)
	}
}

func TestMarshalRejectsV6TopLevel(t *testing.T) {
	u := &Update{Announced: []NLRI{{Prefix: mustPrefix("2001:db8::/32")}}}
	if _, err := u.Marshal(Options{}); !errors.Is(err, ErrBadNLRI) {
		t.Errorf("v6 NLRI: %v", err)
	}
	u = &Update{Withdrawn: []NLRI{{Prefix: mustPrefix("2001:db8::/32")}}}
	if _, err := u.Marshal(Options{}); !errors.Is(err, ErrBadNLRI) {
		t.Errorf("v6 withdrawn: %v", err)
	}
}

func TestUpdateFuzzRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nhv4 := netip.MustParseAddr("192.0.2.1")
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(5)
		var prefixes []netip.Prefix
		for j := 0; j < n; j++ {
			a := netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
			prefixes = append(prefixes, netip.PrefixFrom(a, 8+r.Intn(17)).Masked())
		}
		plen := 1 + r.Intn(6)
		seq := make(aspath.Seq, plen)
		for j := range seq {
			seq[j] = uint32(1 + r.Intn(1000000))
		}
		u, err := NewAnnouncement(seq, nhv4, prefixes)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{AS4: r.Intn(2) == 0, AddPath: r.Intn(2) == 0}
		b, err := u.Marshal(opt)
		if err != nil {
			t.Fatal(err)
		}
		got := new(Update)
		if err := ParseUpdateInto(got, b, opt); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		p, _ := got.ASPathAttr()
		gotSeq, err := p.Sequence()
		if err != nil {
			t.Fatal(err)
		}
		if !gotSeq.Equal(seq) {
			t.Fatalf("iter %d: path %v != %v (opt %+v)", i, gotSeq, seq, opt)
		}
		if len(got.Announced) != len(prefixes) {
			t.Fatalf("iter %d: prefix count", i)
		}
	}
}
