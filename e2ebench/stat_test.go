package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestBeyondCountsSamplesAboveThePercentile(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{90, 100, 10}, {90, 99, 9}, {90, 1000, 100}, {75, 40, 10}, {75, 39, 9}, {50, 21, 10}, {50, 20, 10}, {50, 19, 9},
	} {
		if got := beyond(c.p, c.n); got != c.want {
			t.Errorf("beyond(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
		sorted := seq(c.n)
		v := percentile(sorted, c.p)
		above := 0
		for _, x := range sorted {
			if x > v {
				above++
			}
		}
		if above != c.want {
			t.Errorf("p%v of %d: %d samples above %v, Beyond says %d", c.p, c.n, above, v, c.want)
		}
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50},
	} {
		p, err := tailPercentile(c.n)
		if err != nil || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want p%v", c.n, p, err, c.want)
		}
		if beyond(p, c.n) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d beyond", c.n, p, beyond(p, c.n))
		}
	}
	if _, err := tailPercentile(19); err == nil {
		t.Error("tailPercentile(19) should refuse: the median has only 9 samples beyond it")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Reference values from statistics.quantiles(values, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{10.5, 9.7, 10.1, 10.3, 9.9, 10.0, 10.2, 9.8, 10.4, 10.6}, 9.875, 10.425},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one sample should fail")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
