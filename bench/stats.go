package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of sorted — the value
// at rank ceil(q·n), the convention core.GeneralStats uses for its P99.
// It returns NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles tail() may report, highest first.
var tailLadder = []struct {
	label string
	q     float64
}{
	{"p99.99", 0.9999}, {"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95},
	{"p90", 0.90}, {"p75", 0.75}, {"p50", 0.50},
}

// minBeyond is how many samples must lie above a reported tail
// percentile: fewer, and the percentile is one or two unlucky samples.
const minBeyond = 10

// tail returns the highest ladder percentile of sorted that has at
// least minBeyond samples above its rank. ok is false when even the
// median lacks them (fewer than 20 samples).
func tail(sorted []float64) (label string, value float64, ok bool) {
	n := len(sorted)
	for _, t := range tailLadder {
		rank := int(math.Ceil(t.q * float64(n)))
		if rank >= 1 && n-rank >= minBeyond {
			return t.label, sorted[rank-1], true
		}
	}
	return "", math.NaN(), false
}

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method of Python's statistics.quantiles(n=4), the
// convention the spread checks in README.md use. One value is its own
// quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns the interquartile distance of xs as a share of its
// median — the run-to-run noise figure every bound is compared with.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / med
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durations converts nanosecond samples to sorted float values in the
// given unit.
func durations(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// ops counts attempted and failed operations: pipeline calls, ingest
// sessions, queries. A failed op is one that errored, was refused, or
// whose output failed a check.
type ops struct {
	attempted, failed int
}

func (o *ops) add(err error) {
	o.attempted++
	if err != nil {
		o.failed++
	}
}

// errorRate is failed over attempted; zero attempts is a zero rate.
func (o ops) errorRate() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}
