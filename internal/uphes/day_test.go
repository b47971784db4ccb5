package uphes

import (
	"testing"
)

// testDayInput builds a deterministic realized day without the scenario
// generator: flat price with an evening bump, mean inflow, no reserve
// activations.
func testDayInput(cfg *Config) *DayInput {
	var in DayInput
	for t := 0; t < Steps; t++ {
		in.Price[t] = BasePrice(&cfg.Market, float64(t)*StepHours)
	}
	in.Inflow = cfg.Plant.InflowMean
	return &in
}

func TestPlantCloneIndependent(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPlant(&cfg.Plant)
	c := p.Clone()
	c.SetState(PlantState{UpperV: 0, LowerV: 0})
	if p.State() == c.State() {
		t.Fatal("clone shares state with original")
	}
}

// TestSetStateBoundaryInclusive pins the day-boundary contract: a state
// exactly at a reservoir bound round-trips unchanged — the clamp is
// inclusive, so carrying a full (or empty) reservoir across a day
// boundary is a valid state, not a violation to be repaired.
func TestSetStateBoundaryInclusive(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPlant(&cfg.Plant)
	for _, st := range []PlantState{
		{UpperV: 0, LowerV: 0},
		{UpperV: cfg.Plant.UpperVolumeMax, LowerV: cfg.Plant.LowerVolumeMax},
		{UpperV: cfg.Plant.UpperVolumeMax / 3, LowerV: cfg.Plant.LowerVolumeMax / 7},
	} {
		p.SetState(st)
		if got := p.State(); got != st {
			t.Fatalf("SetState(%+v) round-tripped to %+v", st, got)
		}
	}
	// Out-of-range states clamp instead of propagating impossible
	// volumes.
	p.SetState(PlantState{UpperV: -1, LowerV: 2 * cfg.Plant.LowerVolumeMax})
	got := p.State()
	if got.UpperV != 0 || got.LowerV != cfg.Plant.LowerVolumeMax {
		t.Fatalf("out-of-range state clamped to %+v", got)
	}
}

func TestSimulateDayDeterministicAndCarriesState(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := testDayInput(&cfg)
	start := DefaultState(&cfg.Plant)
	x := make([]float64, Dim)
	x[0], x[1] = -4, 6 // pump overnight, turbine in the morning

	b1, end1, dm1 := sim.SimulateDay(x, start, in)
	b2, end2, dm2 := sim.SimulateDay(x, start, in)
	if b1 != b2 || end1 != end2 || dm1 != dm2 {
		t.Fatal("SimulateDay is not deterministic")
	}
	if end1 == start {
		t.Fatal("active schedule did not move the reservoir state")
	}
	// Carrying the end state changes the next day's outcome.
	b3, _, _ := sim.SimulateDay(x, end1, in)
	if b3 == b1 {
		t.Fatal("carried state did not affect the day outcome")
	}
}

func TestSimulateDayIdleHasNoSwitches(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := testDayInput(&cfg)
	_, _, dm := sim.SimulateDay(make([]float64, Dim), DefaultState(&cfg.Plant), in)
	if dm.Switches != 0 {
		t.Fatalf("idle day reports %d switches", dm.Switches)
	}
	if dm.MinUpperFill > dm.MaxUpperFill || dm.MinLowerFill > dm.MaxLowerFill {
		t.Fatalf("inverted fill envelope: %+v", dm)
	}
}

// TestSimulateDaySwitchCounting pins the reversal semantics: a
// pump→idle→turbine sequence is one switch, repeated same-direction
// blocks are none.
func TestSimulateDaySwitchCounting(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := testDayInput(&cfg)
	start := DefaultState(&cfg.Plant)

	x := make([]float64, Dim)
	x[0] = -7 // pump
	x[1] = 0  // idle
	x[2] = 6  // turbine: one reversal despite the idle dwell
	_, _, dm := sim.SimulateDay(x, start, in)
	if dm.Switches != 1 {
		t.Fatalf("pump-idle-turbine counts %d switches, want 1", dm.Switches)
	}

	same := make([]float64, Dim)
	same[0], same[3], same[6] = 6, 6, 6 // turbine blocks only
	_, _, dm = sim.SimulateDay(same, start, in)
	if dm.Switches != 0 {
		t.Fatalf("same-direction schedule counts %d switches, want 0", dm.Switches)
	}
}

// TestSimulateDayMatchesMonteCarloPath pins that the realized-day path
// and the historical Monte-Carlo path share the same physics: a
// SimulateDay under a scenario's exact inputs reproduces simulate's
// breakdown for that scenario (up to the day-boundary differences the
// API makes explicit: profit includes the fixed cost, the plant starts
// from the given state).
func TestSimulateDayMatchesMonteCarloPath(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.monteCarlo()[0]
	in := &DayInput{Price: sc.price, Inflow: sc.inflow, Activated: sc.activated}
	x := []float64{-5, 3, 0, 6, -2, 4, 1, -6, 2, 1, 0, 3}

	want := sim.simulate(x, &sc)
	got, _, _ := sim.SimulateDay(x, DefaultState(&cfg.Plant), in)
	wantProfit := want.EnergyRevenue + want.ReserveRevenue + want.StoredValue -
		want.ImbalancePenalty - want.ReservePenalty - want.CavitationPenalty -
		cfg.Market.DailyFixedCost
	if got.Profit != wantProfit {
		t.Fatalf("SimulateDay profit %v, Monte-Carlo path %v", got.Profit, wantProfit)
	}
	if got.EnergyRevenue != want.EnergyRevenue || got.CavitationPenalty != want.CavitationPenalty {
		t.Fatalf("breakdown diverged: %+v vs %+v", got, want)
	}
}
