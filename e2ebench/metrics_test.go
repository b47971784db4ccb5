package main

import (
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the repository's BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	b, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, code []metricDef, file []metricSpec) {
		if len(code) != len(file) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", what, len(code), len(file))
			return
		}
		for i, m := range code {
			if m.name != file[i].Name || m.unit != file[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json has %s (%s)", what, i, m.name, m.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}
