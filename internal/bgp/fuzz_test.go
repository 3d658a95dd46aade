package bgp

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzParseUpdate drives the UPDATE decoder with arbitrary messages
// under every session-option combination. The hard property is that the
// parser never panics (the wiresafety invariant: every index dominated
// by a length check). For messages it accepts, re-marshaling is allowed
// to reject non-canonical forms, but once a message re-marshals, the
// canonical bytes must be a parse/marshal fixed point.
func FuzzParseUpdate(f *testing.F) {
	seed := func(u *Update, opt Options) {
		msg, err := u.Marshal(opt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg, opt.AS4, opt.AddPath)
	}
	nh4 := netip.MustParseAddr("10.0.0.1")
	p4 := []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24"), netip.MustParsePrefix("198.51.100.0/25")}
	p6 := []netip.Prefix{netip.MustParsePrefix("2001:db8::/32")}

	ann4, _ := NewAnnouncement([]uint32{65001, 400000, 65003}, nh4, p4)
	ann4.Attrs = append(ann4.Attrs, MED(10), Communities{0x10001}, AtomicAggregate{},
		Aggregator{ASN: 400000, Addr: nh4})
	seed(ann4, Options{})
	seed(ann4, Options{AS4: true})
	seed(ann4, Options{AS4: true, AddPath: true})

	ann6, _ := NewAnnouncement([]uint32{65001, 65002}, netip.MustParseAddr("2001:db8::1"), p6)
	seed(ann6, Options{AS4: true})

	wd4, _ := NewWithdrawal(p4)
	seed(wd4, Options{})
	wd6, _ := NewWithdrawal(p6)
	seed(wd6, Options{AS4: true})

	f.Add([]byte{}, false, false)
	// A KEEPALIVE: the all-ones marker, length 19, type 4.
	f.Add(append(bytes.Repeat([]byte{0xff}, 16), 0x00, 0x13, 0x04), false, false)

	f.Fuzz(func(t *testing.T, msg []byte, as4, addPath bool) {
		opt := Options{AS4: as4, AddPath: addPath}
		var u Update
		if err := ParseUpdateInto(&u, msg, opt); err != nil {
			return
		}
		canon, err := u.Marshal(opt)
		if err != nil {
			// Accepted on parse but not canonically encodable (e.g. an
			// unknown attribute whose flags this encoder won't emit) — out
			// of round-trip scope.
			return
		}
		var u2 Update
		if err := ParseUpdateInto(&u2, canon, opt); err != nil {
			t.Fatalf("re-parse of canonical encoding failed: %v\ncanon = %x", err, canon)
		}
		canon2, err := u2.Marshal(opt)
		if err != nil {
			t.Fatalf("re-marshal of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first = %x\nsecond = %x", canon, canon2)
		}
	})
}
