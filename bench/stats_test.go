package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{seq(100), 0.99, 99},
		{seq(100), 0.50, 50},
		{seq(200), 0.99, 198},
		{[]float64{1, 9}, 0.99, 9}, // rank ceil(1.98) = 2
		{[]float64{3}, 0.99, 3},
		{seq(10), 0, 1}, // rank clamps to 1
	} {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%d values, %g) = %g, want %g", len(c.xs), c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
		value float64
		ok    bool
	}{
		{1000, "p99", 990, true}, // exactly 10 above rank 990
		{999, "p95", 950, true},  // p99 rank 990 leaves 9
		{20, "p50", 10, true},
		{19, "", 0, false},
	} {
		label, v, ok := tail(seq(c.n))
		if ok != c.ok || label != c.label || (ok && v != c.value) {
			t.Errorf("tail(%d) = %q %g %v, want %q %g %v", c.n, label, v, ok, c.label, c.value, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(seq(10))
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
	q1, med, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || med != 3 || q3 != 5 {
		t.Errorf("quartiles(5,1,3) = %g %g %g, want 1 3 5", q1, med, q3)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestOpsErrorRate(t *testing.T) {
	var o ops
	if o.errorRate() != 0 {
		t.Error("no ops should be a zero rate")
	}
	o.add(nil)
	o.add(errors.New("refused"))
	o.add(nil)
	o.add(nil)
	if o.attempted != 4 || o.failed != 1 || o.errorRate() != 0.25 {
		t.Errorf("ops = %+v rate %g, want 4 attempted, 1 failed, 0.25", o, o.errorRate())
	}
}
