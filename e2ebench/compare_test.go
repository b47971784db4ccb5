package main

import "testing"

func TestCompareVerdict(t *testing.T) {
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		cur  []float64
		want string
	}{
		{"identical runs", higher, base, "same"},
		{"throughput down 20%", higher, shift(base, 0.8), "regressed"},
		{"throughput down 5%, inside the bound", higher, shift(base, 0.95), "same"},
		{"throughput up 20%", higher, shift(base, 1.2), "better"},
		{"latency up 20%", lower, shift(base, 1.2), "regressed"},
		{"latency down 20%", lower, shift(base, 0.8), "better"},
		{"spread wider than the bound", higher, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		r, err := compareMetric(c.m, base, c.cur)
		got := r.verdict
		if err != nil || got != c.want {
			t.Errorf("%s: verdict = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
}
