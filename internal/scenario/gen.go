// Package scenario opens the UPHES workload from the paper's single
// representative day to long operational horizons: a deterministic
// ensemble generator for price/inflow paths, a constrained objective
// wrapping the day simulator, a rolling-horizon (MPC-style) dispatch
// driver that re-optimizes day by day with reservoir state carried
// across days, and a fleet layer that runs one optimization session per
// ensemble member — in-process or against a pboserver — and aggregates
// the revenue distribution.
//
// Everything is seeded: the same GenConfig always produces the same
// ensemble, and each (member, day) pair owns an independent rng stream,
// so any day of any member can be regenerated in isolation (the serving
// tier rebuilds single days without replaying the year). See DESIGN.md
// §13.
package scenario

import (
	"math"

	"repro/internal/fp"
	"repro/internal/rng"
	"repro/internal/uphes"
)

// Stream-index namespaces inside the generator's master seed. Pool
// streams and per-(member,day) streams must never collide: the bases are
// far apart and the member/day packing stays well below the gap.
const (
	poolStreamBase = uint64(1) << 32
	dayStreamBase  = uint64(1) << 33
	seedStreamBase = uint64(1) << 34
)

// GenConfig parameterizes the scenario ensemble. The zero value is not
// usable; call withDefaults via the package entry points, which accept
// zero fields and fill in the documented defaults.
type GenConfig struct {
	// Seed drives every stream of the ensemble.
	Seed uint64 `json:"seed"`
	// Members is the ensemble size (default 8).
	Members int `json:"members"`
	// SeasonalAmp is the relative amplitude of the annual price cycle
	// (default 0.18: winter peaks ~18% above the annual mean level).
	SeasonalAmp float64 `json:"seasonal_amp,omitempty"`
	// WeekendDip is the relative weekend price reduction (default 0.12).
	WeekendDip float64 `json:"weekend_dip,omitempty"`
	// InflowSeasonalAmp is the relative amplitude of the annual inflow
	// cycle (default 0.5: spring inflow 50% above the mean).
	InflowSeasonalAmp float64 `json:"inflow_seasonal_amp,omitempty"`
	// BootstrapPool is the number of residual day-curves resampled into
	// daily price paths (default 32).
	BootstrapPool int `json:"bootstrap_pool,omitempty"`
}

func (g GenConfig) withDefaults() GenConfig {
	if g.Members <= 0 {
		g.Members = 8
	}
	if fp.Zero(g.SeasonalAmp) {
		g.SeasonalAmp = 0.18
	}
	if fp.Zero(g.WeekendDip) {
		g.WeekendDip = 0.12
	}
	if fp.Zero(g.InflowSeasonalAmp) {
		g.InflowSeasonalAmp = 0.5
	}
	if g.BootstrapPool <= 0 {
		g.BootstrapPool = 32
	}
	return g
}

// Generator produces deterministic per-(member, day) realized inputs for
// the rolling-horizon driver: the paper's price shape reshaped by annual
// and weekly cycles and perturbed with bootstrap-resampled AR(1)
// residual curves. Safe for concurrent readers after construction.
type Generator struct {
	cfg  GenConfig
	base uphes.Config
	// pool holds the bootstrap residual curves at quarter-hour
	// resolution, built once from the pool stream namespace.
	pool [][uphes.Steps]float64
}

// NewGenerator builds the generator for a plant/market configuration.
// The base config's market parameters shape the curves; its Seed is
// ignored in favor of gen.Seed.
func NewGenerator(base uphes.Config, gen GenConfig) *Generator {
	cfg := gen.withDefaults()
	g := &Generator{cfg: cfg, base: base, pool: make([][uphes.Steps]float64, cfg.BootstrapPool)}
	for i := range g.pool {
		stream := rng.New(cfg.Seed, poolStreamBase+uint64(i))
		// AR(1) hourly residuals interpolated to quarter hours — the
		// same residual process the Monte-Carlo scenario set uses, so
		// the bootstrap pool is statistically exchangeable with it.
		var hourly [25]float64
		noise := 0.0
		for h := 0; h < 25; h++ {
			noise = 0.7*noise + base.Market.PriceSigma*math.Sqrt(1-0.49)*stream.Norm()
			hourly[h] = noise
		}
		for t := 0; t < uphes.Steps; t++ {
			hf := float64(t) * uphes.StepHours
			h0 := int(hf)
			frac := hf - float64(h0)
			g.pool[i][t] = hourly[h0]*(1-frac) + hourly[h0+1]*frac
		}
	}
	return g
}

// seasonalPrice is the annual price level factor for calendar day d:
// peak around mid-January (day 15), trough in July.
func (g *Generator) seasonalPrice(day int) float64 {
	return 1 + g.cfg.SeasonalAmp*math.Cos(2*math.Pi*float64(day-15)/365)
}

// seasonalInflow is the annual inflow factor: peak in spring (day ~80).
func (g *Generator) seasonalInflow(day int) float64 {
	f := 1 + g.cfg.InflowSeasonalAmp*math.Sin(2*math.Pi*float64(day-80+91)/365)
	if f < 0 {
		return 0
	}
	return f
}

// weekday is the weekly price factor: days 5 and 6 of each week are the
// weekend (day 0 is a Monday by convention).
func (g *Generator) weekday(day int) float64 {
	if day%7 >= 5 {
		return 1 - g.cfg.WeekendDip
	}
	return 1
}

// dayStream returns the independent stream owning all randomness of one
// (member, day) cell. Days are regenerable in isolation: the rolling
// driver re-reads day d in every horizon window that covers it and gets
// identical inputs each time.
func (g *Generator) dayStream(member, day int) *rng.Stream {
	return rng.New(g.cfg.Seed, dayStreamBase+uint64(member)<<16+uint64(day))
}

// Day generates the realized inputs of one calendar day for one ensemble
// member.
func (g *Generator) Day(member, day int) uphes.DayInput {
	stream := g.dayStream(member, day)
	var in uphes.DayInput
	curve := &g.pool[stream.IntN(len(g.pool))]
	level := g.seasonalPrice(day) * g.weekday(day)
	for t := 0; t < uphes.Steps; t++ {
		price := uphes.BasePrice(&g.base.Market, float64(t)*uphes.StepHours)*level + curve[t]
		if price < 1 {
			price = 1
		}
		in.Price[t] = price
	}
	in.Inflow = g.base.Plant.InflowMean*g.seasonalInflow(day) +
		g.base.Plant.InflowSigma*stream.Norm()
	if in.Inflow < 0 {
		in.Inflow = 0
	}
	for r := 0; r < uphes.ReserveSlots; r++ {
		if stream.Float64() < g.base.Market.ReserveActivationProb {
			in.Activated[r] = 0.3 + 0.7*stream.Float64()
		}
	}
	return in
}

// Days generates n consecutive days starting at day for one member — the
// horizon window the rolling driver optimizes over.
func (g *Generator) Days(member, day, n int) []uphes.DayInput {
	out := make([]uphes.DayInput, n)
	for i := range out {
		out[i] = g.Day(member, day+i)
	}
	return out
}

// DerivedSeed maps a fleet master seed and a (member, day) cell to the
// engine seed of that day's optimization run, so every day of every
// member is an independent yet reproducible BO run.
func DerivedSeed(seed uint64, member, day int) uint64 {
	return rng.New(seed, seedStreamBase+uint64(member)<<16+uint64(day)).Uint64()
}
