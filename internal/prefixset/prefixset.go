// Package prefixset provides prefix collections and queries used across
// the policy-atom pipeline: hash sets with set algebra (atom stability
// comparisons), a binary trie for containment queries (aggregation and
// more-specific detection), and the paper's prefix-length admission rule
// (≤ /24 for IPv4, ≤ /48 for IPv6, §2.4.3).
package prefixset

import (
	"fmt"
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

// Set is a hash set of prefixes with the set algebra the stability
// metrics need. The zero value is not usable; call NewSet.
type Set struct {
	m map[netip.Prefix]struct{}
}

// NewSet returns an empty set, optionally seeded.
func NewSet(ps ...netip.Prefix) *Set {
	s := &Set{m: make(map[netip.Prefix]struct{}, len(ps))}
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// Add inserts p (canonicalized). Invalid prefixes are ignored.
func (s *Set) Add(p netip.Prefix) {
	c := Canonical(p)
	if c.IsValid() {
		s.m[c] = struct{}{}
	}
}

// Remove deletes p from the set.
func (s *Set) Remove(p netip.Prefix) { delete(s.m, Canonical(p)) }

// Contains reports membership.
func (s *Set) Contains(p netip.Prefix) bool {
	_, ok := s.m[Canonical(p)]
	return ok
}

// Len returns the number of prefixes.
func (s *Set) Len() int { return len(s.m) }

// Equal reports whether both sets hold exactly the same prefixes.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	for p := range s.m {
		if _, ok := o.m[p]; !ok {
			return false
		}
	}
	return true
}

// IntersectionLen returns |s ∩ o| without materializing the intersection.
func (s *Set) IntersectionLen(o *Set) int {
	small, large := s, o
	if large.Len() < small.Len() {
		small, large = large, small
	}
	n := 0
	for p := range small.m {
		if _, ok := large.m[p]; ok {
			n++
		}
	}
	return n
}

// SubsetOf reports whether every prefix of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	if s.Len() > o.Len() {
		return false
	}
	for p := range s.m {
		if _, ok := o.m[p]; !ok {
			return false
		}
	}
	return true
}

// All iterates the set in unspecified order; return false to stop.
func (s *Set) All(yield func(netip.Prefix) bool) {
	for p := range s.m {
		if !yield(p) {
			return
		}
	}
}

// Sorted returns the prefixes in deterministic (address, length) order.
func (s *Set) Sorted() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(s.m))
	for p := range s.m {
		out = append(out, p)
	}
	SortPrefixes(out)
	return out
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{m: make(map[netip.Prefix]struct{}, len(s.m))}
	for p := range s.m {
		c.m[p] = struct{}{}
	}
	return c
}

// String renders a deterministic "{a, b, c}" form, for diagnostics.
func (s *Set) String() string {
	ps := s.Sorted()
	out := "{"
	for i, p := range ps {
		if i > 0 {
			out += ", "
		}
		out += p.String()
	}
	return out + "}"
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

// MustParse parses a prefix, canonicalizes it, and panics on failure.
// Intended for tests and table literals.
func MustParse(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(fmt.Sprintf("prefixset: %v", err))
	}
	return Canonical(p)
}
