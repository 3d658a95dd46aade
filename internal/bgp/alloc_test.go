package bgp

import (
	"net/netip"
	"testing"

	"repro/internal/aspath"
)

// allocTestUpdate builds a representative announcement and its wire form.
func allocTestUpdate(t *testing.T) (*Update, []byte) {
	t.Helper()
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParsePrefix("203.0.113.0/24"),
		netip.MustParsePrefix("192.0.2.128/25"),
	}
	u, err := NewAnnouncement(aspath.Seq{64500, 64501, 64502}, netip.MustParseAddr("192.0.2.1"), prefixes)
	if err != nil {
		t.Fatal(err)
	}
	data, err := u.Marshal(Options{AS4: true})
	if err != nil {
		t.Fatal(err)
	}
	return u, data
}

// The decode hot path: with a reused Update and an attribute cache,
// re-parsing a message must not allocate — this is what lets bgpstream
// drain millions of archive records without fighting the GC.
func TestParseUpdateIntoSteadyStateAllocs(t *testing.T) {
	_, data := allocTestUpdate(t)
	opt := Options{AS4: true, Cache: NewAttrCache()}
	var u Update
	n := testing.AllocsPerRun(100, func() {
		if err := ParseUpdateInto(&u, data, opt); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("ParseUpdateInto steady state: %v allocs/op, want 0", n)
	}
}

// The encode hot path: AppendMessage into a reused buffer must not
// allocate once the buffer has grown to size.
func TestAppendMessageSteadyStateAllocs(t *testing.T) {
	u, want := allocTestUpdate(t)
	var buf []byte
	n := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = u.AppendMessage(buf[:0], Options{AS4: true})
		if err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("AppendMessage steady state: %v allocs/op, want 0", n)
	}
	if string(buf) != string(want) {
		t.Fatal("AppendMessage output diverged from Marshal")
	}
}

// Cache hits must return the identical attribute values, not re-parsed
// copies.
func TestAttrCacheSharesValues(t *testing.T) {
	_, data := allocTestUpdate(t)
	opt := Options{AS4: true, Cache: NewAttrCache()}
	u1 := new(Update)
	if err := ParseUpdateInto(u1, data, opt); err != nil {
		t.Fatal(err)
	}
	u2 := new(Update)
	if err := ParseUpdateInto(u2, data, opt); err != nil {
		t.Fatal(err)
	}
	p1, _ := u1.Attr(AttrTypeASPath).(ASPath)
	p2, _ := u2.Attr(AttrTypeASPath).(ASPath)
	if len(p1.Path.Segments) == 0 || &p1.Path.Segments[0].ASNs[0] != &p2.Path.Segments[0].ASNs[0] {
		t.Fatal("cached AS_PATH not shared between parses")
	}
}
