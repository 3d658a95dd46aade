// Package vptrust implements the paper's §7.1 proposal: detecting
// unreliable vantage points from atom-split observations. A VP that
// repeatedly appears as the *sole* observer of atom splits is breaking
// atoms through its own local policy churn; counting it as a witness of
// network-wide events would mistake local artifacts for routing changes.
//
// Scores aggregate split-observer data over a window of daily snapshots
// (metrics.DetectSplits) into a per-VP reliability ranking, with a
// recommended exclusion set for global routing-policy studies.
package vptrust

import (
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Score is one VP's split-observation record.
type Score struct {
	VP core.VP
	// SoloSplits counts events this VP alone observed.
	SoloSplits int
	// SharedSplits counts events it co-observed with others.
	SharedSplits int
	// Days with at least one solo observation.
	ActiveDays int
}

// SoloShare is the fraction of the VP's observations that were solo —
// the localness of its signal.
func (s Score) SoloShare() float64 {
	t := s.SoloSplits + s.SharedSplits
	if t == 0 {
		return 0
	}
	return float64(s.SoloSplits) / float64(t)
}

// Report ranks VPs by solo-split volume.
type Report struct {
	Scores []Score
	// TotalEvents and SoloEvents summarize the window.
	TotalEvents, SoloEvents int
	Days                    int
}

// Analyze aggregates per-day split events into VP scores. Each events
// slice is one day's metrics.DetectSplits output.
func Analyze(days [][]metrics.SplitEvent) *Report {
	rep := &Report{Days: len(days)}
	acc := map[core.VP]*Score{}
	soloToday := map[core.VP]bool{}
	get := func(vp core.VP) *Score {
		s := acc[vp]
		if s == nil {
			s = &Score{VP: vp}
			acc[vp] = s
		}
		return s
	}
	for _, events := range days {
		clear(soloToday)
		for _, e := range events {
			rep.TotalEvents++
			if len(e.Observers) == 1 {
				rep.SoloEvents++
				s := get(e.Observers[0])
				s.SoloSplits++
				soloToday[e.Observers[0]] = true
				continue
			}
			for _, vp := range e.Observers {
				get(vp).SharedSplits++
			}
		}
		for vp := range soloToday {
			acc[vp].ActiveDays++
		}
	}
	for _, s := range acc {
		rep.Scores = append(rep.Scores, *s)
	}
	sort.Slice(rep.Scores, func(i, j int) bool {
		if rep.Scores[i].SoloSplits != rep.Scores[j].SoloSplits {
			return rep.Scores[i].SoloSplits > rep.Scores[j].SoloSplits
		}
		a, b := rep.Scores[i].VP, rep.Scores[j].VP
		if a.Collector != b.Collector {
			return a.Collector < b.Collector
		}
		return a.ASN < b.ASN
	})
	return rep
}

// Unreliable returns the VPs whose solo-split volume exceeds `factor`
// times the median — the exclusion set recommended for global
// routing-policy studies (use-case dependent: coverage-maximizing
// applications should keep every VP, §4.4.1).
func (rep *Report) Unreliable(factor float64) []Score {
	if len(rep.Scores) == 0 {
		return nil
	}
	solos := make([]int, 0, len(rep.Scores))
	for _, s := range rep.Scores {
		solos = append(solos, s.SoloSplits)
	}
	sort.Ints(solos)
	median := float64(solos[len(solos)/2])
	// With a silent majority the median can be zero; require a floor.
	threshold := median * factor
	if threshold < 3 {
		threshold = 3
	}
	var out []Score
	for _, s := range rep.Scores {
		if float64(s.SoloSplits) > threshold {
			out = append(out, s)
		}
	}
	return out
}
