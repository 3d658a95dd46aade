package metrics

import (
	"net/netip"
	"sort"

	"repro/internal/aspath"
	"repro/internal/core"
	"repro/internal/obs"
)

// SplitEvent is one atom split detected across three consecutive daily
// snapshots (§4.4.1): an atom present (by prefix composition) at t and
// t+1 whose prefixes are spread over several atoms at t+2.
type SplitEvent struct {
	// Prefixes is the split atom's composition (from t+1).
	Prefixes []netip.Prefix
	// Observers lists the VPs that report the post-split grouping: VPs
	// observing the atom's prefixes with ≥2 distinct paths at t+2.
	Observers []core.VP
}

// DetectSplits finds split events across snapshots t0, t1, t2. A
// non-nil parent receives a child span with atom counts in and events
// out; nil skips tracing entirely.
func DetectSplits(s0, s1, s2 *core.AtomSet, parent *obs.Span) []SplitEvent {
	if parent == nil {
		return detectSplits(s0, s1, s2)
	}
	sp := parent.Child("metrics.detect_splits")
	events := detectSplits(s0, s1, s2)
	sp.SetAttr("atoms_t1", len(s1.Atoms))
	sp.SetAttr("events", len(events))
	sp.End()
	return events
}

func detectSplits(s0, s1, s2 *core.AtomSet) []SplitEvent {
	// Atom identity is prefix composition: present at t0 AND t1.
	sigs0 := make(map[string]struct{}, len(s0.Atoms))
	for i := range s0.Atoms {
		sigs0[atomSig(s0, i)] = struct{}{}
	}

	// t2 lookup: prefix value → atom, and VP identity → column.
	atomOf2 := make(map[netip.Prefix]int, len(s2.Snap.Prefixes))
	idxOf2 := make(map[netip.Prefix]int, len(s2.Snap.Prefixes))
	for p, pfx := range s2.Snap.Prefixes {
		atomOf2[pfx] = s2.ByPrefix[p]
		idxOf2[pfx] = p
	}

	var events []SplitEvent
	for i := range s1.Atoms {
		a := &s1.Atoms[i]
		if a.Size() < 2 {
			continue // a single prefix cannot split
		}
		sig := atomSig(s1, i)
		if _, ok := sigs0[sig]; !ok {
			continue // not stable before: no established atom to split
		}
		prefixes := s1.PrefixSet(i)
		// Split if the prefixes span ≥2 atoms at t2 (prefixes missing
		// from t2 are treated as separated).
		first, split := -2, false
		for _, pfx := range prefixes {
			at, ok := atomOf2[pfx]
			if !ok {
				at = -1
			}
			if first == -2 {
				first = at
			} else if at != first {
				split = true
				break
			}
		}
		if !split {
			continue
		}
		events = append(events, SplitEvent{
			Prefixes:  prefixes,
			Observers: splitObservers(s2, prefixes, idxOf2),
		})
	}
	return events
}

// splitObservers finds the VPs at t2 that see the prefixes with more
// than one distinct path (including missing-vs-present differences).
func splitObservers(s2 *core.AtomSet, prefixes []netip.Prefix, idxOf2 map[netip.Prefix]int) []core.VP {
	snap := s2.Snap
	var observers []core.VP
	for v := range snap.VPs {
		var firstID aspath.ID
		firstSet := false
		distinct := false
		for _, pfx := range prefixes {
			var id aspath.ID // Empty for prefixes missing from t2
			if p, ok := idxOf2[pfx]; ok {
				id = snap.RouteID(p, v)
			}
			if !firstSet {
				firstID, firstSet = id, true
			} else if id != firstID {
				distinct = true
				break
			}
		}
		if distinct {
			observers = append(observers, snap.VPs[v])
		}
	}
	return observers
}

// ObserverCDF summarizes Fig 6: for each observer count, the number of
// events with at most that many observers.
type ObserverCDF struct {
	// Counts[i] = number of events with exactly i observers (index 0
	// holds events visible to no VP — possible when the split is only a
	// disappearance).
	Counts []int
	Total  int
}

// BuildObserverCDF aggregates events.
func BuildObserverCDF(events []SplitEvent) ObserverCDF {
	max := 0
	for _, e := range events {
		if len(e.Observers) > max {
			max = len(e.Observers)
		}
	}
	cdf := ObserverCDF{Counts: make([]int, max+1), Total: len(events)}
	for _, e := range events {
		cdf.Counts[len(e.Observers)]++
	}
	return cdf
}

// FractionAtMost returns the share of events with ≤ n observers.
func (c ObserverCDF) FractionAtMost(n int) float64 {
	if c.Total == 0 {
		return 0
	}
	sum := 0
	for i := 0; i <= n && i < len(c.Counts); i++ {
		sum += c.Counts[i]
	}
	return float64(sum) / float64(c.Total)
}

// DayBreakdown is one day's Fig 7 bar: how many split events were seen
// by a single VP (and which VPs dominate) versus several VPs.
type DayBreakdown struct {
	Day                 int
	Events              int
	MultiObserver       int
	SingleObserver      int
	TopVP               core.VP
	TopVPEvents         int
	SecondVP            core.VP
	SecondVPEvents      int
	OtherSingleVPEvents int
}

// BreakdownDay classifies one day's events.
func BreakdownDay(day int, events []SplitEvent) DayBreakdown {
	b := DayBreakdown{Day: day, Events: len(events)}
	perVP := map[core.VP]int{}
	for _, e := range events {
		if len(e.Observers) == 1 {
			b.SingleObserver++
			perVP[e.Observers[0]]++
		} else if len(e.Observers) > 1 {
			b.MultiObserver++
		}
	}
	type kv struct {
		vp core.VP
		n  int
	}
	var ranked []kv
	for vp, n := range perVP {
		ranked = append(ranked, kv{vp, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		if ranked[i].vp.Collector != ranked[j].vp.Collector {
			return ranked[i].vp.Collector < ranked[j].vp.Collector
		}
		return ranked[i].vp.ASN < ranked[j].vp.ASN
	})
	if len(ranked) > 0 {
		b.TopVP, b.TopVPEvents = ranked[0].vp, ranked[0].n
	}
	if len(ranked) > 1 {
		b.SecondVP, b.SecondVPEvents = ranked[1].vp, ranked[1].n
	}
	b.OtherSingleVPEvents = b.SingleObserver - b.TopVPEvents - b.SecondVPEvents
	return b
}
