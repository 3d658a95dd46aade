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
