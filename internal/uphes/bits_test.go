package uphes

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

var updateBits = flag.Bool("updatebits", false, "rewrite the simulator bit-identity fixture")

// simBitsFile pins the exact float64 bits the simulator produces over a
// seeded set of schedules, start states and day inputs: SimulateDay's
// Breakdown, end state and DayMetrics, and the Monte-Carlo Eval. Any
// rewrite of the hydraulics (caching, reordering, algebraic shortcuts)
// must reproduce every line. The file is recorded once and never
// regenerated to make a change pass.
const simBitsFile = "testdata/simulate_bits.golden"

// bitsConfig returns a configuration the fixture covers: the calibrated
// "default" or the "hifi" variant with penstock losses (the fixed-point
// flow loop) and ramp limits.
func bitsConfig(name string) Config {
	cfg := DefaultConfig()
	if name == "hifi" {
		cfg.Plant.PenstockLossCoeff = 0.15
		cfg.Plant.RampLimitMW = 2
	}
	return cfg
}

// bitsStarts are the carried start states: the initial fill, both
// reservoirs empty, both full, and the two corners whose head lies
// outside the safe range (upper empty over a full pit, upper full over
// an empty pit).
func bitsStarts(p *PlantConfig) []PlantState {
	return []PlantState{
		DefaultState(p),
		{UpperV: 0, LowerV: 0},
		{UpperV: p.UpperVolumeMax, LowerV: p.LowerVolumeMax},
		{UpperV: 0, LowerV: p.LowerVolumeMax},
		{UpperV: p.UpperVolumeMax, LowerV: 0},
		{UpperV: 0.9 * p.UpperVolumeMax, LowerV: 0.1 * p.LowerVolumeMax},
	}
}

// bitsSchedules returns fixed extreme schedules followed by seeded
// uniform draws from the decision box.
func bitsSchedules(cfg *Config, n int) [][]float64 {
	out := [][]float64{
		make([]float64, Dim), // idle
		{8, 8, 8, 8, 8, 8, 8, 8, 2, 2, 2, 2},
		{-8, -8, -8, -8, -8, -8, -8, -8, 0, 0, 0, 0},
		{-8, -7, 8, 5.7, 6, 4, -6, 7, 1, 2, 0.5, 1.5},
	}
	lo, hi := cfg.Bounds()
	s := rng.New(2022, 13)
	for len(out) < n {
		out = append(out, s.UniformVec(lo, hi))
	}
	return out
}

// bitsInput draws a realized day: the base price shape with noise,
// a random inflow and random reserve activations.
func bitsInput(cfg *Config, s *rng.Stream) *DayInput {
	var in DayInput
	for t := 0; t < Steps; t++ {
		in.Price[t] = BasePrice(&cfg.Market, float64(t)*StepHours) + 8*s.Norm()
	}
	in.Inflow = cfg.Plant.InflowMean * 4 * s.Float64()
	for r := 0; r < ReserveSlots; r++ {
		if s.Float64() < 0.5 {
			in.Activated[r] = s.Float64()
		}
	}
	return &in
}

func hexBits(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, " ")
}

// simBitsLines renders the fixture: one line per (config, start,
// schedule) SimulateDay and one per (config, schedule) Eval.
func simBitsLines(t *testing.T) []string {
	var lines []string
	for _, name := range []string{"default", "hifi"} {
		cfg := bitsConfig(name)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		xs := bitsSchedules(&cfg, 10)
		in := rng.New(2022, 14)
		for si, start := range bitsStarts(&cfg.Plant) {
			for xi, x := range xs {
				b, end, dm := sim.SimulateDay(x, start, bitsInput(&cfg, in))
				lines = append(lines, fmt.Sprintf("%s day s%d x%d %s %s %s %d", name, si, xi,
					hexBits(b.EnergyRevenue, b.ReserveRevenue, b.StoredValue, b.ImbalancePenalty,
						b.ReservePenalty, b.CavitationPenalty, b.Profit),
					hexBits(end.UpperV, end.LowerV),
					hexBits(dm.MinUpperFill, dm.MaxUpperFill, dm.MinLowerFill, dm.MaxLowerFill),
					dm.Switches))
			}
		}
		for xi, x := range xs {
			y, _ := sim.Eval(x)
			lines = append(lines, fmt.Sprintf("%s eval x%d %s", name, xi, hexBits(y)))
		}
	}
	return lines
}

// TestSimulatorBitIdentity compares the simulator's outputs bit for bit
// with the recorded fixture.
func TestSimulatorBitIdentity(t *testing.T) {
	got := simBitsLines(t)
	if *updateBits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simBitsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(simBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("fixture has %d lines, simulator produced %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 5 {
				t.Errorf("line %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d fixture lines differ", bad, len(got))
	}
}
