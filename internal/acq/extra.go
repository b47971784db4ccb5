package acq

import (
	"math"

	"repro/internal/rng"
	"repro/internal/surrogate"
)

// ScaledEI is the scaled Expected Improvement of Noè & Husmeier (the
// paper's reference [32]): EI normalized by the standard deviation of the
// improvement, SEI(x) = EI(x) / √(Var I(x)), which tempers EI's tendency
// to over-reward high-variance points. Gradients are computed by central
// finite differences — the analytic form is unwieldy and the criterion is
// used for ablations, not inner loops.
type ScaledEI struct {
	// Best is the incumbent objective value.
	Best float64
	// Minimize selects the improvement direction.
	Minimize bool
}

// Name implements Acquisition.
func (e *ScaledEI) Name() string { return "ScaledEI" }

// Eval implements Acquisition.
func (e *ScaledEI) Eval(g surrogate.Surrogate, x []float64) float64 {
	mu, sd := g.Predict(x)
	return scaledEIValue(mu, sd, e.Best, e.Minimize)
}

func scaledEIValue(mu, sd, best float64, minimize bool) float64 {
	var m float64
	if minimize {
		m = best - mu
	} else {
		m = mu - best
	}
	if sd < 1e-12 {
		return 0
	}
	z := m / sd
	cdf, pdf := rng.NormCDF(z), rng.NormPDF(z)
	ei := m*cdf + sd*pdf
	if ei <= 0 {
		return 0
	}
	// Var I = σ²[(z²+1)Φ(z) + z·φ(z)] − EI².
	vi := sd*sd*((z*z+1)*cdf+z*pdf) - ei*ei
	if vi <= 1e-300 {
		return 0
	}
	return ei / math.Sqrt(vi)
}

// EvalWithGrad implements Acquisition via central finite differences.
func (e *ScaledEI) EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64 {
	v := e.Eval(g, x)
	const h = 1e-6
	s := grabGradScratch(len(x))
	defer gradScratchPool.Put(s)
	xh := s.dMu
	copy(xh, x)
	for j := range x {
		xh[j] = x[j] + h
		up := e.Eval(g, xh)
		xh[j] = x[j] - h
		dn := e.Eval(g, xh)
		xh[j] = x[j]
		grad[j] = (up - dn) / (2 * h)
	}
	return v
}
