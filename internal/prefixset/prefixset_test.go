package prefixset

import (
	"net/netip"
	"testing"
)

func TestAdmissible(t *testing.T) {
	tests := []struct {
		p    string
		want bool
	}{
		{"10.0.0.0/8", true},
		{"10.0.0.0/24", true},
		{"10.0.0.0/25", false},
		{"10.0.0.1/32", false},
		{"2001:db8::/32", true},
		{"2001:db8::/48", true},
		{"2001:db8::/49", false},
		{"2001:db8::/64", false},
	}
	for _, tc := range tests {
		if got := Admissible(mustParse(tc.p)); got != tc.want {
			t.Errorf("Admissible(%s) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Admissible(netip.Prefix{}) {
		t.Error("invalid prefix admissible")
	}
	// 4-in-6 mapped address uses the v4 rule.
	m := netip.PrefixFrom(netip.MustParseAddr("::ffff:10.0.0.0"), 96+25)
	if Admissible(m) {
		t.Error("mapped /25 should fail the v4 rule")
	}
}

func TestCanonical(t *testing.T) {
	p := netip.MustParsePrefix("10.1.2.3/8")
	if got := Canonical(p); got.String() != "10.0.0.0/8" {
		t.Errorf("Canonical = %v", got)
	}
	m := netip.PrefixFrom(netip.MustParseAddr("::ffff:192.168.1.5"), 96+24)
	if got := Canonical(m); got.String() != "192.168.1.0/24" {
		t.Errorf("Canonical(mapped) = %v", got)
	}
	if Canonical(netip.Prefix{}).IsValid() {
		t.Error("Canonical(invalid) should be invalid")
	}
	bad := netip.PrefixFrom(netip.MustParseAddr("::ffff:1.2.3.4"), 50)
	if Canonical(bad).IsValid() {
		t.Error("mapped prefix shorter than /96 should be invalid")
	}
}

func TestSortAndCompare(t *testing.T) {
	ps := []netip.Prefix{
		mustParse("2001:db8::/32"),
		mustParse("10.0.0.0/16"),
		mustParse("10.0.0.0/8"),
		mustParse("9.0.0.0/8"),
	}
	SortPrefixes(ps)
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "2001:db8::/32"}
	for i, w := range want {
		if ps[i].String() != w {
			t.Fatalf("sorted[%d] = %v, want %s", i, ps[i], w)
		}
	}
	if ComparePrefixes(ps[0], ps[0]) != 0 {
		t.Error("Compare self != 0")
	}
	if ComparePrefixes(ps[3], ps[0]) <= 0 {
		t.Error("v6 should sort after v4")
	}
}

// mustParse parses and canonicalizes a prefix literal.
func mustParse(s string) netip.Prefix {
	return Canonical(netip.MustParsePrefix(s))
}
