// Package topology models the AS-level Internet as it evolves across the
// paper's measurement window (2004–2024, with a 2002 configuration for
// the Afek et al. reproduction): a tiered, Gao-Rexford-style AS graph
// with customer-provider and peering links, sibling-AS organizations,
// prefix allocation with growing fragmentation, IPv6 adoption including
// a FITI-like address-assignment event, and per-AS routing policies —
// the ingredients from which policy atoms emerge.
//
// Everything is deterministic in (Params.Seed, Era): AS identities,
// link structure, and prefix assignments are stable functions of a
// creation index, so consecutive eras grow the same Internet rather
// than sampling unrelated ones. Short-horizon churn (hours/days) is the
// routing layer's concern, not topology's.
package topology

import "fmt"

// Era identifies a quarterly snapshot epoch. Era 0 is 2004 Q1; each
// increment is one quarter. Negative values reach back to the 2002
// reproduction window (2002 Q1 = -8).
type Era int

// EraOf returns the era for a year and quarter (1-4).
func EraOf(year, quarter int) Era {
	return Era((year-2004)*4 + quarter - 1)
}

// Year returns the calendar year of the era.
func (e Era) Year() int { return 2004 + floorDiv(int(e), 4) }

// Quarter returns the quarter (1-4).
func (e Era) Quarter() int {
	return int(e) - floorDiv(int(e), 4)*4 + 1
}

// String renders "2004Q1".
func (e Era) String() string {
	y := 2004 + floorDiv(int(e), 4)
	q := int(e) - floorDiv(int(e), 4)*4 + 1
	return fmt.Sprintf("%dQ%d", y, q)
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// t returns the era's position in the 2004–2024 window as a fraction in
// [0,1], clamped outside the window.
func (e Era) t() float64 {
	const last = 83 // 2024 Q4
	f := float64(e) / last
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
