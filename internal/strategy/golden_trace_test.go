package strategy

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

var updateTrace = flag.Bool("updatetrace", false, "rewrite the golden Y-trace file")

// goldenTraceFile pins the full evaluation trace of every paper strategy
// for one fixed seed. The engine refactor from monolithic Run to lifecycle
// phases (and the Strategy interface move from *gp.GP to surrogate.Surrogate)
// must not perturb a single bit of the arithmetic: any change to stream
// consumption order, fit scheduling or candidate selection shows up here as
// a trace mismatch. JSON float64 round-trips exactly (shortest-form
// encoding), so a byte-equal comparison of parsed values is bit-exact.
const goldenTraceFile = "testdata/paper_traces.golden.json"

func goldenEngine(s core.Strategy) *core.Engine {
	return &core.Engine{
		Problem:        sphereProblem(),
		Strategy:       s,
		BatchSize:      2,
		InitSamples:    6,
		MaxCycles:      3,
		Budget:         time.Hour, // cycle count is pinned by MaxCycles
		OverheadFactor: 1,
		Model:          core.ModelConfig{Restarts: 1, MaxIter: 10, FitSubsetMax: 48},
		Seed:           7,
	}
}

func TestPaperStrategyTracesGolden(t *testing.T) {
	got := map[string][]float64{}
	for _, s := range allStrategies() {
		res, err := goldenEngine(s).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		got[s.Name()] = res.Y
	}
	if *updateTrace {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTraceFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTraceFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenTraceFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(Names) {
		t.Fatalf("golden file has %d strategies, want %d", len(want), len(Names))
	}
	for name, wy := range want {
		gy, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from run", name)
			continue
		}
		if len(gy) != len(wy) {
			t.Errorf("%s: trace length %d, want %d", name, len(gy), len(wy))
			continue
		}
		for i := range wy {
			//lint:ignore floatcmp golden traces must match bit-for-bit across refactors
			if gy[i] != wy[i] {
				t.Errorf("%s: Y[%d] = %v, want %v (trace diverged)", name, i, gy[i], wy[i])
				break
			}
		}
	}
}
