package scenario

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/fp"
	"repro/internal/uphes"
)

// boundaryEps is the slack under which a constraint is considered
// satisfied: violations are strict excesses beyond the bound, so a
// reservoir sitting exactly on a bound (the day-boundary carry case) is
// feasible, not an infinitesimal violation.
const boundaryEps = 1e-9

// switchScale converts excess mode switches (a count) into the fill-
// fraction units the other violation terms use, keeping the aggregate
// violation magnitude comparable across constraint families.
const switchScale = 0.1

// ConstraintConfig bounds the plant operation the optimizer may commit.
// Zero fields select the documented defaults.
type ConstraintConfig struct {
	// MinFill and MaxFill bound both reservoirs' fill fraction at every
	// step of the day (defaults 0.05 and 0.98): never drain a basin to
	// the dead zone, never run one to the brim.
	MinFill float64 `json:"min_fill,omitempty"`
	MaxFill float64 `json:"max_fill,omitempty"`
	// MaxSwitchesPerDay caps pump↔turbine reversals per day (default 6)
	// — the machine-wear limit.
	MaxSwitchesPerDay int `json:"max_switches_per_day,omitempty"`
	// EndFillBand bounds how far the upper reservoir's end-of-horizon
	// fill may drift from its start-of-horizon fill (default 0.2),
	// keeping the myopic horizon from strip-mining the stored water.
	EndFillBand float64 `json:"end_fill_band,omitempty"`
}

func (c ConstraintConfig) withDefaults() ConstraintConfig {
	if fp.Zero(c.MinFill) {
		c.MinFill = 0.05
	}
	if fp.Zero(c.MaxFill) {
		c.MaxFill = 0.98
	}
	if c.MaxSwitchesPerDay == 0 {
		c.MaxSwitchesPerDay = 6
	}
	if fp.Zero(c.EndFillBand) {
		c.EndFillBand = 0.2
	}
	return c
}

// excess returns the strict constraint excess of v beyond bound in the
// given direction, with the boundary itself (and boundaryEps around it)
// feasible.
func excess(v, bound float64, above bool) float64 {
	var e float64
	if above {
		e = v - bound
	} else {
		e = bound - v
	}
	if e <= boundaryEps {
		return 0
	}
	return e
}

// evalRec caches one horizon simulation: the total profit and the
// aggregate constraint violation of the decision vector, plus the first
// day's own outcome, which is what a rolling-horizon commit realizes.
type evalRec struct {
	profit    float64
	violation float64
	day0      dayOutcome
}

// dayOutcome is one SimulateDay result.
type dayOutcome struct {
	b   uphes.Breakdown
	end uphes.PlantState
	dm  uphes.DayMetrics
}

// Constrained is the horizon objective of one (member, day) cell: it
// simulates Horizon consecutive days from the carried reservoir state
// under the member's realized inputs, sums the profits, and measures the
// constraint violations the unconstrained simulator only prices softly.
// It implements parallel.Evaluator (the profit is the objective) and
// exposes Violation for the constraint surrogate's training labels.
// Evaluations are cached, so the factory's violation lookups never
// re-simulate points the pool already evaluated. Safe for concurrent
// use.
type Constrained struct {
	// Sim is the day simulator.
	Sim *uphes.Simulator
	// Inputs are the horizon's realized days, index 0 = the committed
	// day.
	Inputs []uphes.DayInput
	// Start is the reservoir state carried into the horizon.
	Start uphes.PlantState
	// Cons is the defaulted constraint configuration.
	Cons ConstraintConfig
	// Latency is the simulated per-evaluation cost.
	Latency time.Duration

	mu    sync.Mutex
	cache map[string]evalRec
}

// key packs a decision vector into a map key by exact bit pattern, so
// the cache distinguishes -0 from +0 and never rounds.
func key(x []float64) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

// run simulates the horizon once and caches the result.
func (c *Constrained) run(x []float64) evalRec {
	k := key(x)
	c.mu.Lock()
	if rec, ok := c.cache[k]; ok {
		c.mu.Unlock()
		return rec
	}
	c.mu.Unlock()

	h := len(c.Inputs)
	state := c.Start
	startFill := state.UpperV / c.Sim.Config().Plant.UpperVolumeMax
	var rec evalRec
	for i := 0; i < h; i++ {
		b, next, dm := c.Sim.SimulateDay(x[i*uphes.Dim:(i+1)*uphes.Dim], state, &c.Inputs[i])
		if i == 0 {
			rec.day0 = dayOutcome{b: b, end: next, dm: dm}
		}
		rec.profit += b.Profit
		rec.violation += c.dayViolation(&dm)
		state = next
	}
	endFill := state.UpperV / c.Sim.Config().Plant.UpperVolumeMax
	rec.violation += excess(math.Abs(endFill-startFill), c.Cons.EndFillBand, true)

	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[string]evalRec)
	}
	c.cache[k] = rec
	c.mu.Unlock()
	return rec
}

// dayViolation aggregates one day's constraint excesses from its
// operational metrics.
func (c *Constrained) dayViolation(dm *uphes.DayMetrics) float64 {
	v := excess(dm.MinUpperFill, c.Cons.MinFill, false)
	v += excess(dm.MaxUpperFill, c.Cons.MaxFill, true)
	v += excess(dm.MinLowerFill, c.Cons.MinFill, false)
	v += excess(dm.MaxLowerFill, c.Cons.MaxFill, true)
	if ex := dm.Switches - c.Cons.MaxSwitchesPerDay; ex > 0 {
		v += switchScale * float64(ex)
	}
	return v
}

// Eval implements parallel.Evaluator: the horizon profit with the
// configured simulated latency.
func (c *Constrained) Eval(x []float64) (float64, time.Duration) {
	return c.run(x).profit, c.Latency
}

// Violation returns the aggregate constraint violation of x: 0 when
// every constraint holds, otherwise the summed strict excesses. It is
// the training label of the constraint surrogate and the rolling
// driver's commit gate.
func (c *Constrained) Violation(x []float64) float64 {
	return c.run(x).violation
}

// Feasible reports whether x satisfies every constraint.
func (c *Constrained) Feasible(x []float64) bool {
	return fp.Zero(c.run(x).violation)
}

// firstDay returns SimulateDay of x's first day from Start under the
// first day's inputs: the day a rolling-horizon commit realizes. For an
// evaluated point it is a cache lookup.
func (c *Constrained) firstDay(x []float64) (uphes.Breakdown, uphes.PlantState, uphes.DayMetrics) {
	d := c.run(x).day0
	return d.b, d.end, d.dm
}
