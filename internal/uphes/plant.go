package uphes

import "math"

// Physical constants.
const (
	rhoWater = 1000.0 // kg/m³
	gravity  = 9.81   // m/s²
)

// Plant carries the hydraulic state of the two reservoirs during one
// simulated day. The rolling-horizon scenario driver threads this state
// across days: State captures it after a committed day, SetState seeds the
// next day's plant with it.
type Plant struct {
	cfg *PlantConfig
	// upperV and lowerV are the current stored volumes [m³].
	upperV, lowerV float64
	// hyd caches the head-dependent quantities of the current volumes.
	hyd hydraulics
}

// hydraulics caches the head-dependent quantities of one reservoir
// state. A simulation step asks for the lower level, the head and the
// similarity-law scale (h/h_nom)^1.5 a couple of dozen times between
// volume changes; each is a pure function of the volumes, so computing
// it once per distinct state and reusing it is bit-identical to
// recomputing it. Entries are keyed on the exact bit patterns of the
// volumes they were computed from, so any volume change — through a
// move, an exchange or SetState — misses the cache.
type hydraulics struct {
	lowerOK    bool
	lowerKey   uint64 // bits of lowerV
	lowerLevel float64

	headOK             bool
	headKeyU, headKeyL uint64 // bits of upperV and lowerV
	head               float64

	// scale is (head/HeadNominal)^1.5, valid while scaleOK; it is
	// cleared whenever head is recomputed.
	scaleOK bool
	scale   float64
}

// NewPlant returns a plant at the configured initial fill.
func NewPlant(cfg *PlantConfig) *Plant {
	return &Plant{
		cfg:    cfg,
		upperV: cfg.InitialFill * cfg.UpperVolumeMax,
		lowerV: cfg.InitialFill * cfg.LowerVolumeMax,
	}
}

// PlantState is the carried hydraulic state between simulated days: the
// stored volumes of both reservoirs [m³]. It serializes on the scenario
// wire (serve's DaySpec), so the fields are exported and JSON-tagged.
type PlantState struct {
	UpperV float64 `json:"upper_v"`
	LowerV float64 `json:"lower_v"`
}

// DefaultState returns the initial-fill state NewPlant starts from.
func DefaultState(cfg *PlantConfig) PlantState {
	return PlantState{
		UpperV: cfg.InitialFill * cfg.UpperVolumeMax,
		LowerV: cfg.InitialFill * cfg.LowerVolumeMax,
	}
}

// State returns the current reservoir volumes.
func (p *Plant) State() PlantState {
	return PlantState{UpperV: p.upperV, LowerV: p.lowerV}
}

// SetState installs carried-over reservoir volumes. Values are clamped
// into [0, capacity] with the bounds themselves included: a reservoir
// sitting exactly at a bound is a legal state, not an error — the day-
// boundary contract the scenario engine's feasibility accounting relies
// on (a schedule that parks the level exactly on a bound must not trip a
// violation on the next day's first step).
func (p *Plant) SetState(s PlantState) {
	p.upperV = clamp(s.UpperV, 0, p.cfg.UpperVolumeMax)
	p.lowerV = clamp(s.LowerV, 0, p.cfg.LowerVolumeMax)
}

// UpperFill and LowerFill return the fill fractions in [0, 1].
func (p *Plant) UpperFill() float64 { return p.upperV / p.cfg.UpperVolumeMax }

// LowerFill returns the lower-basin fill fraction in [0, 1].
func (p *Plant) LowerFill() float64 { return p.lowerV / p.cfg.LowerVolumeMax }

// upperLevel returns the upper water surface elevation [m].
func (p *Plant) upperLevel() float64 {
	return p.cfg.UpperBase + p.upperV/p.cfg.UpperArea
}

// lowerLevel returns the underground water surface elevation [m]. The pit
// narrows toward the bottom: level rises steeply when nearly empty.
func (p *Plant) lowerLevel() float64 {
	k := math.Float64bits(p.lowerV)
	if !p.hyd.lowerOK || p.hyd.lowerKey != k {
		frac := p.lowerV / p.cfg.LowerVolumeMax
		if frac < 0 {
			frac = 0
		}
		p.hyd.lowerLevel = p.cfg.LowerBase + p.cfg.LowerDepth*math.Pow(frac, p.cfg.LowerShape)
		p.hyd.lowerKey, p.hyd.lowerOK = k, true
	}
	return p.hyd.lowerLevel
}

// head returns the net hydraulic head [m] between the two surfaces.
func (p *Plant) head() float64 {
	ku, kl := math.Float64bits(p.upperV), math.Float64bits(p.lowerV)
	if !p.hyd.headOK || p.hyd.headKeyU != ku || p.hyd.headKeyL != kl {
		p.hyd.head = p.upperLevel() - p.lowerLevel()
		p.hyd.headKeyU, p.hyd.headKeyL, p.hyd.headOK = ku, kl, true
		p.hyd.scaleOK = false
	}
	return p.hyd.head
}

// headSafe reports whether the head lies in the safe operating range.
func (p *Plant) headSafe() bool {
	h := p.head()
	return h >= p.cfg.HeadMin && h <= p.cfg.HeadMax
}

// headRatio is h/h_nom, the scaling of head-dependent quantities.
func (p *Plant) headRatio() float64 { return p.head() / p.cfg.HeadNominal }

// headScale is (h/h_nom)^1.5, the similarity-law factor every power
// limit scales with, computed once per reservoir state.
func (p *Plant) headScale() float64 {
	r := p.headRatio() // refreshes the head entry, clearing scale on a new state
	if !p.hyd.scaleOK {
		p.hyd.scale = math.Pow(r, 1.5)
		p.hyd.scaleOK = true
	}
	return p.hyd.scale
}

// pumpRange returns the feasible pump power range [MW] at the current
// head. Higher head demands more power to move water: the range shifts up
// with head (limits scale with h/h_nom to the 1.5 power, the usual
// similarity law for variable-speed machines).
func (p *Plant) pumpRange() (lo, hi float64) {
	s := p.headScale()
	return p.cfg.PumpMinMW * s, p.cfg.PumpMaxMW * s
}

// turbineRange returns the feasible turbine power range [MW] at the
// current head. Low head restricts the maximum output sharply.
func (p *Plant) turbineRange() (lo, hi float64) {
	s := p.headScale()
	return p.cfg.TurbineMinMW * s, p.cfg.TurbineMaxMW * s
}

// cavitationZone returns the turbine forbidden band [MW] at the current
// head (vibration zone, scaled with head). Operation inside the band is
// unsafe and penalized.
func (p *Plant) cavitationZone() (lo, hi float64) {
	s := p.headScale()
	return p.cfg.CavitationLow * s, p.cfg.CavitationHigh * s
}

// turbineEff returns the turbine efficiency at power P [MW]. It peaks at
// ~85% of the head-adjusted maximum and degrades quadratically with power
// deviation and with head deviation from nominal — a smooth non-convex
// performance surface.
func (p *Plant) turbineEff(P float64) float64 {
	_, hi := p.turbineRange()
	if hi <= 0 {
		return 0.01
	}
	frac := P / hi
	dev := frac - 0.85
	hd := p.headRatio() - 1
	eff := p.cfg.TurbineEff * (1 - p.cfg.EffPowerCurvature*dev*dev) * (1 - p.cfg.EffHeadCurvature*hd*hd)
	if eff < 0.05 {
		eff = 0.05
	}
	return eff
}

// pumpEff returns the pump efficiency at power P [MW].
func (p *Plant) pumpEff(P float64) float64 {
	_, hi := p.pumpRange()
	if hi <= 0 {
		return 0.01
	}
	frac := P / hi
	dev := frac - 0.9
	hd := p.headRatio() - 1
	eff := p.cfg.PumpEff * (1 - p.cfg.EffPowerCurvature*dev*dev) * (1 - p.cfg.EffHeadCurvature*hd*hd)
	if eff < 0.05 {
		eff = 0.05
	}
	return eff
}

// turbineFlow returns the discharge [m³/s] needed to generate P MW at the
// current head: Q = P / (η·ρ·g·h_eff). With penstock losses enabled the
// effective head shrinks by c·Q², solved by a few fixed-point sweeps.
func (p *Plant) turbineFlow(P float64) float64 {
	h := p.head()
	if h <= 0 {
		return 0
	}
	q := P * 1e6 / (p.turbineEff(P) * rhoWater * gravity * h)
	if c := p.cfg.PenstockLossCoeff; c > 0 {
		for iter := 0; iter < 4; iter++ {
			hEff := h - c*q*q
			if hEff < 1 {
				hEff = 1
			}
			q = P * 1e6 / (p.turbineEff(P) * rhoWater * gravity * hEff)
		}
	}
	return q
}

// pumpFlow returns the lift flow [m³/s] achieved by P MW of pumping:
// Q = η·P / (ρ·g·h_eff). Penstock losses increase the head the pump must
// overcome.
func (p *Plant) pumpFlow(P float64) float64 {
	h := p.head()
	if h <= 0 {
		return 0
	}
	q := p.pumpEff(P) * P * 1e6 / (rhoWater * gravity * h)
	if c := p.cfg.PenstockLossCoeff; c > 0 {
		for iter := 0; iter < 4; iter++ {
			hEff := h + c*q*q
			q = p.pumpEff(P) * P * 1e6 / (rhoWater * gravity * hEff)
		}
	}
	return q
}

// moveTurbine discharges volume v [m³] from upper to lower, clamped by
// availability; returns the fraction actually movable.
func (p *Plant) moveTurbine(v float64) float64 {
	if v <= 0 {
		return 1
	}
	avail := math.Min(p.upperV, p.cfg.LowerVolumeMax-p.lowerV)
	frac := 1.0
	if v > avail {
		frac = avail / v
		v = avail
	}
	p.upperV -= v
	p.lowerV += v
	return frac
}

// movePump lifts volume v [m³] from lower to upper, clamped by
// availability; returns the fraction actually movable.
func (p *Plant) movePump(v float64) float64 {
	if v <= 0 {
		return 1
	}
	avail := math.Min(p.lowerV, p.cfg.UpperVolumeMax-p.upperV)
	frac := 1.0
	if v > avail {
		frac = avail / v
		v = avail
	}
	p.lowerV -= v
	p.upperV += v
	return frac
}

// groundwaterStep exchanges water between the lower basin and the
// surrounding rock mass over dt seconds: Darcy-like flow proportional to
// the level difference to the water table. Positive exchange fills the
// basin.
func (p *Plant) groundwaterStep(dtSeconds float64) float64 {
	diff := p.cfg.GroundwaterLevel - p.lowerLevel()
	flow := p.cfg.GroundwaterRate * diff // m³/s, signed
	dv := flow * dtSeconds
	switch {
	case dv > 0:
		room := p.cfg.LowerVolumeMax - p.lowerV
		if dv > room {
			dv = room
		}
	case dv < 0:
		if -dv > p.lowerV {
			dv = -p.lowerV
		}
	}
	p.lowerV += dv
	return dv
}

// inflowStep adds natural inflow [m³/s over dt seconds] to the lower basin.
func (p *Plant) inflowStep(flow, dtSeconds float64) {
	dv := flow * dtSeconds
	if dv < 0 {
		dv = 0
	}
	room := p.cfg.LowerVolumeMax - p.lowerV
	if dv > room {
		dv = room
	}
	p.lowerV += dv
}

// storedEnergyMWh returns the potential energy of the upper reservoir
// relative to the current head, net of turbine efficiency — the water
// value basis for the end-of-day settlement.
func (p *Plant) storedEnergyMWh() float64 {
	h := p.head()
	if h <= 0 {
		return 0
	}
	joules := p.upperV * rhoWater * gravity * h * p.cfg.TurbineEff
	return joules / 3.6e9
}
