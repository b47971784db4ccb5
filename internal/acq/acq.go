// Package acq implements the acquisition functions (infill criteria) used
// by the paper's five batch acquisition processes: analytic Expected
// Improvement, Upper Confidence Bound and Probability of Improvement with
// gradients for L-BFGS optimization, and Monte-Carlo multi-point q-EI via
// the reparameterization trick with fixed quasi-MC base samples (the
// BoTorch construction used by MC-based q-EGO and TuRBO).
//
// All acquisition values are utilities to be maximized, regardless of
// whether the underlying objective is minimized or maximized.
package acq

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/surrogate"
)

// Acquisition scores a single candidate point under a surrogate posterior
// (the paper's GP, or any other surrogate.Surrogate).
type Acquisition interface {
	// Name identifies the criterion (for logging and Table 3).
	Name() string
	// Eval returns the utility of x.
	Eval(g surrogate.Surrogate, x []float64) float64
	// EvalWithGrad returns the utility and writes its gradient w.r.t. x
	// into grad (length = dim).
	EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64
}

// EI is the Expected Improvement criterion of Jones et al. (EGO).
type EI struct {
	// Best is the incumbent objective value.
	Best float64
	// Minimize selects the improvement direction.
	Minimize bool
	// Xi is an optional exploration offset added to the improvement
	// threshold (0 is the classical criterion).
	Xi float64
}

// Name implements Acquisition.
func (e *EI) Name() string { return "EI" }

// Eval implements Acquisition.
func (e *EI) Eval(g surrogate.Surrogate, x []float64) float64 {
	mu, sd := g.Predict(x)
	v, _ := eiValue(mu, sd, e.Best, e.Minimize, e.Xi)
	return v
}

// EvalWithGrad implements Acquisition.
func (e *EI) EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64 {
	s := grabGradScratch(len(x))
	mu, sd := g.PredictWithGrad(x, s.dMu, s.dSD)
	v, partial := eiValue(mu, sd, e.Best, e.Minimize, e.Xi)
	// partial = (∂EI/∂μ', ∂EI/∂σ) where μ' is the signed improvement mean.
	sign := 1.0
	if e.Minimize {
		sign = -1
	}
	for j := range grad {
		grad[j] = sign*partial[0]*s.dMu[j] + partial[1]*s.dSD[j]
	}
	gradScratchPool.Put(s)
	return v
}

// eiValue computes EI and its partials w.r.t. (signed mean, sd). The signed
// improvement mean is m = μ−best (maximize) or best−μ (minimize), shifted
// by −ξ.
func eiValue(mu, sd, best float64, minimize bool, xi float64) (float64, [2]float64) {
	var m float64
	if minimize {
		m = best - mu - xi
	} else {
		m = mu - best - xi
	}
	if sd < 1e-12 {
		if m > 0 {
			return m, [2]float64{1, 0}
		}
		return 0, [2]float64{0, 0}
	}
	z := m / sd
	cdf := rng.NormCDF(z)
	pdf := rng.NormPDF(z)
	ei := m*cdf + sd*pdf
	// ∂EI/∂m = Φ(z); ∂EI/∂σ = φ(z).
	return ei, [2]float64{cdf, pdf}
}

// UCB is the (GP-)Upper Confidence Bound criterion: μ + β·σ for
// maximization, −μ + β·σ for minimization (i.e. the negated lower
// confidence bound), so that larger is always better.
type UCB struct {
	// Beta is the exploration weight (default 2 when zero).
	Beta float64
	// Minimize selects the bound direction.
	Minimize bool
}

// Name implements Acquisition.
func (u *UCB) Name() string { return "UCB" }

func (u *UCB) beta() float64 {
	if u.Beta <= 0 {
		return 2
	}
	return u.Beta
}

// Eval implements Acquisition.
func (u *UCB) Eval(g surrogate.Surrogate, x []float64) float64 {
	mu, sd := g.Predict(x)
	if u.Minimize {
		return -mu + u.beta()*sd
	}
	return mu + u.beta()*sd
}

// EvalWithGrad implements Acquisition.
func (u *UCB) EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64 {
	s := grabGradScratch(len(x))
	mu, sd := g.PredictWithGrad(x, s.dMu, s.dSD)
	sign := 1.0
	if u.Minimize {
		sign = -1
	}
	b := u.beta()
	for j := range grad {
		grad[j] = sign*s.dMu[j] + b*s.dSD[j]
	}
	gradScratchPool.Put(s)
	if u.Minimize {
		return -mu + b*sd
	}
	return mu + b*sd
}

// PI is the Probability of Improvement criterion of Kushner.
type PI struct {
	// Best is the incumbent objective value.
	Best float64
	// Minimize selects the improvement direction.
	Minimize bool
	// Xi is an optional improvement margin.
	Xi float64
}

// Name implements Acquisition.
func (p *PI) Name() string { return "PI" }

// Eval implements Acquisition.
func (p *PI) Eval(g surrogate.Surrogate, x []float64) float64 {
	mu, sd := g.Predict(x)
	return piValue(mu, sd, p.Best, p.Minimize, p.Xi)
}

// EvalWithGrad implements Acquisition.
func (p *PI) EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64 {
	s := grabGradScratch(len(x))
	defer gradScratchPool.Put(s)
	mu, sd := g.PredictWithGrad(x, s.dMu, s.dSD)
	var m float64
	if p.Minimize {
		m = p.Best - mu - p.Xi
	} else {
		m = mu - p.Best - p.Xi
	}
	if sd < 1e-12 {
		for j := range grad {
			grad[j] = 0
		}
		if m > 0 {
			return 1
		}
		return 0
	}
	z := m / sd
	pdf := rng.NormPDF(z)
	sign := 1.0
	if p.Minimize {
		sign = -1
	}
	// ∂Φ(z)/∂x = φ(z)·(sign·dμ·σ − m·dσ)/σ².
	for j := range grad {
		grad[j] = pdf * (sign*s.dMu[j]*sd - m*s.dSD[j]) / (sd * sd)
	}
	return rng.NormCDF(z)
}

func piValue(mu, sd, best float64, minimize bool, xi float64) float64 {
	var m float64
	if minimize {
		m = best - mu - xi
	} else {
		m = mu - best - xi
	}
	if sd < 1e-12 {
		if m > 0 {
			return 1
		}
		return 0
	}
	return rng.NormCDF(m / sd)
}

// QEI is the Monte-Carlo multi-point Expected Improvement
// qEI(X) = E[ max_i (improvement of y_i)+ ] with y ~ N(μ(X), Σ(X)),
// estimated with fixed quasi-MC base samples through the
// reparameterization y = μ + L·z (Wilson et al., Balandat et al.). The base
// samples are drawn once at construction, which makes the estimator a
// deterministic, optimizable function of the batch.
type QEI struct {
	// Best is the incumbent objective value.
	Best float64
	// Minimize selects the improvement direction.
	Minimize bool

	q    int
	base [][]float64 // m×q standard normal quasi-MC samples
}

// NewQEI builds a q-point MC EI with the given number of base samples
// (default 128 when samples <= 0) drawn from the stream.
func NewQEI(q, samples int, best float64, minimize bool, stream *rng.Stream) *QEI {
	if q < 1 {
		panic(fmt.Sprintf("acq: qEI with q=%d", q))
	}
	if samples <= 0 {
		samples = 128
	}
	return &QEI{
		Best:     best,
		Minimize: minimize,
		q:        q,
		base:     rng.SobolNormal(samples, q, stream),
	}
}

// EvalBatch returns the MC estimate of qEI for the batch xs (len q). The
// batch posterior comes from a single joint GP prediction.
func (e *QEI) EvalBatch(g surrogate.Surrogate, xs [][]float64) float64 {
	if len(xs) != e.q {
		panic(fmt.Sprintf("acq: qEI batch size %d != %d", len(xs), e.q))
	}
	jp, err := g.PredictJoint(xs)
	if err != nil {
		// A degenerate joint covariance (duplicated points) still has a
		// well-defined qEI; fall back to the diagonal approximation.
		return e.diagonalFallback(g, xs)
	}
	s := grabBatchScratch(e.q, 0)
	defer batchScratchPool.Put(s)
	var acc float64
	y := s.y
	for _, z := range e.base {
		for i := 0; i < e.q; i++ {
			v := jp.Mean[i]
			row := jp.CovChol.Row(i)
			for k := 0; k <= i; k++ {
				v += row[k] * z[k]
			}
			y[i] = v
		}
		best := 0.0
		for _, yi := range y {
			var imp float64
			if e.Minimize {
				imp = e.Best - yi
			} else {
				imp = yi - e.Best
			}
			if imp > best {
				best = imp
			}
		}
		acc += best
	}
	return acc / float64(len(e.base))
}

func (e *QEI) diagonalFallback(g surrogate.Surrogate, xs [][]float64) float64 {
	var acc float64
	for _, z := range e.base {
		best := 0.0
		for i, x := range xs {
			mu, sd := g.Predict(x)
			yi := mu + sd*z[i]
			var imp float64
			if e.Minimize {
				imp = e.Best - yi
			} else {
				imp = yi - e.Best
			}
			if imp > best {
				best = imp
			}
		}
		acc += best
	}
	return acc / float64(len(e.base))
}

// FlatObjective adapts the batch criterion to a flattened q·d vector for
// generic optimizers: the slice is interpreted as q concatenated points.
func (e *QEI) FlatObjective(g surrogate.Surrogate, d int) func(flat []float64) float64 {
	return func(flat []float64) float64 {
		if len(flat) != e.q*d {
			panic(fmt.Sprintf("acq: flat length %d != q·d = %d", len(flat), e.q*d))
		}
		s := grabBatchScratch(0, e.q)
		for i := range s.xs {
			s.xs[i] = flat[i*d : (i+1)*d]
		}
		v := e.EvalBatch(g, s.xs)
		batchScratchPool.Put(s)
		return v
	}
}
