// Package prefixset provides the prefix helpers used across the
// policy-atom pipeline: canonical form, the deterministic prefix order,
// and the paper's prefix-length admission rule (≤ /24 for IPv4, ≤ /48
// for IPv6, §2.4.3).
package prefixset

import (
	"net/netip"
	"slices"
)

// Admissible reports whether p passes the paper's prefix-length filter:
// IPv4 prefixes no more specific than /24, IPv6 no more specific than /48.
// Invalid prefixes are not admissible.
func Admissible(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	if p.Addr().Is4() || p.Addr().Is4In6() {
		return p.Bits() <= 24
	}
	return p.Bits() <= 48
}

// Canonical returns p in canonical form (masked address, unmapped) so that
// equal routes compare equal. It returns the zero Prefix for invalid input.
func Canonical(p netip.Prefix) netip.Prefix {
	if !p.IsValid() {
		return netip.Prefix{}
	}
	addr := p.Addr()
	if addr.Is4In6() {
		addr = addr.Unmap()
		bits := p.Bits() - 96
		if bits < 0 {
			return netip.Prefix{}
		}
		p = netip.PrefixFrom(addr, bits)
	}
	return p.Masked()
}

// SortPrefixes orders prefixes by address family (v4 first), then address,
// then prefix length — a stable, deterministic total order.
func SortPrefixes(ps []netip.Prefix) {
	slices.SortFunc(ps, ComparePrefixes)
}

// ComparePrefixes is the total order used by SortPrefixes.
func ComparePrefixes(a, b netip.Prefix) int {
	a4, b4 := a.Addr().Is4(), b.Addr().Is4()
	if a4 != b4 {
		if a4 {
			return -1
		}
		return 1
	}
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}
