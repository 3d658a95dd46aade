package bgp

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/aspath"
)

// Regression tests for wire-safety bugs: parsers trusting the header
// length over the buffer length (panic on truncated input), and
// marshalers narrowing section lengths without range checks (silent
// truncation on the wire). Every length the encoder narrows to one or
// two bytes has a case here that must fail with an error.

// headerOverclaim returns msg cut short so the header's length field
// claims more bytes than the slice holds — the shape a truncated read
// from a TCP stream or MRT file produces.
func headerOverclaim(msg []byte) []byte {
	return msg[:len(msg)-2]
}

func TestParseUpdateHeaderOverclaim(t *testing.T) {
	u, err := NewAnnouncement([]uint32{65001, 65002}, netip.MustParseAddr("10.0.0.1"),
		[]netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := u.Marshal(Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ParseUpdateInto(&Update{}, headerOverclaim(msg), Options{AS4: true}); !errors.Is(err, ErrTruncated) {
		t.Errorf("overclaiming UPDATE: err = %v, want ErrTruncated", err)
	}
}

func TestUnknownAttrLengthBoundary(t *testing.T) {
	attr := func(n int) Unknown {
		return Unknown{Flags: flagOptional | flagTransitive, TypeCode: 200, Data: make([]byte, n)}
	}
	// 0xffff fits the extended length and must round-trip.
	b, err := MarshalAttributes([]Attr{attr(0xffff)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := AppendAttributes(nil, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 1 {
		t.Fatalf("attrs = %d", len(attrs))
	}
	if u, ok := attrs[0].(Unknown); !ok || len(u.Data) != 0xffff {
		t.Errorf("round-tripped attr = %#v", attrs[0])
	}
	// One byte more overflows uint16 and must error, not truncate.
	if _, err := MarshalAttributes([]Attr{attr(0x10000)}, Options{}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("oversized unknown attr: err = %v, want ErrBadAttr", err)
	}
}

func TestAttrBodyExceedsExtendedLength(t *testing.T) {
	// TABLE_DUMP_V2 RIB entries carry bare attribute blocks with no
	// message-size cap, so an encoded body over 0xffff bytes must be
	// rejected at the attribute level.
	comms := make(Communities, 0x10000/4+1) // 65540-byte body
	if _, err := MarshalAttributes([]Attr{comms}, Options{}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("oversized communities: err = %v, want ErrBadAttr", err)
	}
	// Just under the limit still uses the extended-length form.
	comms = make(Communities, 0xfffc/4) // 65532-byte body
	b, err := MarshalAttributes([]Attr{comms}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := AppendAttributes(nil, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := attrs[0].(Communities); !ok || len(got) != len(comms) {
		t.Errorf("round-tripped %T len %d, want Communities len %d", attrs[0], len(got), len(comms))
	}
}

func TestMPReachNextHopTooLong(t *testing.T) {
	nh := netip.MustParseAddr("2001:db8::1").As16()
	ok := MPReach{AFI: AFIIPv6, SAFI: SAFIUnicast, NextHop: nh[:],
		NLRI: []NLRI{{Prefix: netip.MustParsePrefix("2001:db8::/32")}}}
	if _, err := MarshalAttributes([]Attr{ok}, Options{}); err != nil {
		t.Fatalf("16-byte next hop: %v", err)
	}
	bad := ok
	bad.NextHop = make([]byte, 256) // length field is one byte
	if _, err := MarshalAttributes([]Attr{bad}, Options{}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("256-byte next hop: err = %v, want ErrBadAttr", err)
	}
}

// An AS_PATH segment's ASN count is one byte: 255 ASNs encode, 256
// must be an error rather than a count that wraps to 0.
func TestASPathSegmentOverflow(t *testing.T) {
	seg := func(n int) ASPath {
		return ASPath{Path: aspath.Path{Segments: []aspath.Segment{{Type: aspath.SegSequence, ASNs: make([]uint32, n)}}}}
	}
	if _, err := MarshalAttributes([]Attr{seg(255)}, Options{AS4: true}); err != nil {
		t.Fatalf("255-ASN segment: %v", err)
	}
	if _, err := MarshalAttributes([]Attr{seg(256)}, Options{AS4: true}); !errors.Is(err, ErrBadAttr) {
		t.Errorf("256-ASN segment: err = %v, want ErrBadAttr", err)
	}
}

func TestAppendMessageSectionOverflow(t *testing.T) {
	// ~14k /32 withdrawals encode to ~70000 bytes: past the 16-bit
	// withdrawn-routes length. The message-size check rejects it: no
	// section can outgrow its 16-bit length field inside a message
	// capped at MaxMsgLen, so a wrapped field is never returned.
	u := &Update{}
	for i := 0; i < 14000; i++ {
		p := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.%d/32", i>>16&0xff, i>>8&0xff, i&0xff))
		u.Withdrawn = append(u.Withdrawn, NLRI{Prefix: p})
	}
	if _, err := u.Marshal(Options{}); !errors.Is(err, ErrBadLength) {
		t.Errorf("oversized withdrawn section: err = %v, want ErrBadLength", err)
	}
}
