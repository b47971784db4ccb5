// Package gp implements exact Gaussian process regression with a constant
// trend and homoskedastic observation noise — the surrogate model the paper
// uses for every BO algorithm. Inputs are normalized to the unit cube and
// outputs standardized internally; hyperparameters (ARD lengthscales,
// output scale, noise) are fitted by maximizing the log marginal likelihood
// with analytic gradients and a warm-started multi-start bounded L-BFGS.
//
// The package also provides the two operations batch acquisition needs
// beyond plain prediction: joint predictive distributions over q points
// (for Monte-Carlo q-EI) and O(n²) Kriging-Believer "fantasy" updates via
// incremental Cholesky extension.
package gp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// parallelJointN is the training-set size at which PredictJoint splits
// its q independent fill+solve columns across parallel.ForEach workers.
// Below it the forward solves are too cheap to amortize the fan-out. A
// variable (not a const) so bit-identity tests can force both branches
// on small fixtures.
var parallelJointN = 4096

// gramParallelN is the fitted-set size at which gramInto splits its row
// fill (and the mirror of the strict upper triangle) across
// parallel.ForEachBand workers. The split is bit-safe at every size —
// each band writes disjoint rows and the batched row fill is bitwise-
// identical to the per-pair loop — so the threshold is purely a
// fan-out-overhead knob. A variable so bit-identity tests can force both
// branches on small fixtures.
var gramParallelN = 512

// gramRowBand is the contiguous row-band granularity of the parallel
// Gram fill. The partition depends only on the row count, never on the
// worker count.
const gramRowBand = 64

// lmlGradBandN gates the banded gradient-trace reduction in
// logMarginalLikelihood. Unlike the Gram fill, the banded path fixes a
// DIFFERENT (though still deterministic) floating-point association than
// the seed's single serial left-fold over all pairs: per-band partials
// are summed in band order. The gate therefore keeps small-n fits —
// including every golden-trace fixture — on the legacy serial DAG
// byte-for-byte, while FitSubsetMax-scale fits get a partition that
// depends only on n and is identical for every GOMAXPROCS. A variable so
// bit-identity tests can force both branches on small fixtures.
var lmlGradBandN = 512

// lmlGradBand is the row-band granularity of the banded gradient trace.
const lmlGradBand = 64

// KernelKind selects the covariance family for Config.
type KernelKind int

// Supported kernel families.
const (
	//lint:ignore unusedexport the named zero value of KernelKind: every zero Config selects it without spelling it out
	Matern52 KernelKind = iota // paper default
	Matern32
	SE
)

// Config controls GP construction and hyperparameter fitting.
type Config struct {
	// Kernel selects the covariance family (default Matern52, as in the
	// paper).
	Kernel KernelKind
	// Bounds are the lower/upper corners of the design space, used to
	// normalize inputs to the unit cube. Required.
	Lo, Hi []float64
	// Noise fixes the observation noise variance (standardized-output
	// scale) when > 0; when 0, noise is fitted as a hyperparameter.
	Noise float64
	// Restarts is the number of random restarts for hyperparameter
	// optimization in addition to the warm start (default 2).
	Restarts int
	// MaxIter bounds L-BFGS iterations per restart (default 50).
	MaxIter int
	// FitSubsetMax caps the number of points used during marginal
	// likelihood optimization (0 = no cap). Prediction always uses all
	// data. This implements the paper's §4 "use subsets of data"
	// recommendation and keeps large-batch runs tractable.
	FitSubsetMax int
	// Seed derives the deterministic streams used in fitting.
	Seed uint64
}

func (c *Config) validate() error {
	if len(c.Lo) == 0 || len(c.Lo) != len(c.Hi) {
		return fmt.Errorf("gp: invalid bounds (lo %d, hi %d)", len(c.Lo), len(c.Hi))
	}
	for i := range c.Lo {
		if !(c.Lo[i] < c.Hi[i]) {
			return fmt.Errorf("gp: bounds[%d] = [%v, %v] not increasing", i, c.Lo[i], c.Hi[i])
		}
	}
	return nil
}

func (c *Config) newKernel(d int) kernel.Kernel {
	switch c.Kernel {
	case Matern32:
		return kernel.NewMatern32(d)
	case SE:
		return kernel.NewSE(d)
	default:
		return kernel.NewMatern52(d)
	}
}

// Hyperparameter bounds in log space on normalized inputs/outputs.
var (
	logVarLo, logVarHi     = math.Log(0.02), math.Log(20.0)
	logLenLo, logLenHi     = math.Log(0.01), math.Log(4.0)
	logNoiseLo, logNoiseHi = math.Log(1e-6), math.Log(1e-1)
)

// GP is a fitted Gaussian process model. It is immutable after Fit;
// Fantasize returns derived models sharing hyperparameters.
type GP struct {
	cfg  Config
	kern kernel.Kernel
	d    int

	x     *mat.Dense // normalized inputs, n×d
	yraw  []float64  // original outputs
	ymean float64    // output standardization
	ystd  float64
	ys    []float64 // standardized outputs

	noise float64 // noise variance in standardized space
	chol  *mat.Cholesky
	alpha []float64 // (K+σ²I)⁻¹ ys

	warmParams []float64 // packed [kernel params..., logNoise] for refits
	fitLML     float64   // LML achieved at fit time

	ws *sync.Pool // *predictWorkspace scratch sized for this model's (n, d)
}

// predictWorkspace is the per-call scratch of the prediction hot path. It
// is recycled through the model's sync.Pool, so steady-state Predict and
// PredictWithGrad perform zero heap allocations. Workspaces are sized for
// one fitted model and never shared across models; nothing in a workspace
// escapes a Predict* call.
type predictWorkspace struct {
	u      []float64 // d: normalized query point
	ks     []float64 // n: cross-covariance k★
	v      []float64 // n: L⁻¹k★
	w      []float64 // n: K⁻¹k★
	kg     []float64 // n·d: batched ∂k(u, x_i)/∂u rows
	dMeanU []float64 // d: mean gradient accumulator (normalized space)
	dVarU  []float64 // d: variance gradient accumulator
}

// initWorkspacePool equips a conditioned model with its scratch pool. Must
// be called exactly once, after g.x is final.
func (g *GP) initWorkspacePool() {
	n, d := g.x.Rows(), g.d
	g.ws = &sync.Pool{New: func() any {
		return &predictWorkspace{
			u:      make([]float64, d),
			ks:     make([]float64, n),
			v:      make([]float64, n),
			w:      make([]float64, n),
			kg:     make([]float64, n*d),
			dMeanU: make([]float64, d),
			dVarU:  make([]float64, d),
		}
	}}
}

// ErrEmptyData is returned when fitting with no observations.
var ErrEmptyData = errors.New("gp: no training data")

// Both model families in this package are full surrogates.
var (
	_ surrogate.Surrogate = (*GP)(nil)
	_ surrogate.Surrogate = (*RFF)(nil)
)

// Fit trains a GP on the given raw-space observations.
func Fit(xs [][]float64, ys []float64, cfg Config) (*GP, error) {
	return fitWarm(xs, ys, cfg, nil)
}

// Refit trains a new GP on updated data, warm-starting hyperparameter
// optimization from a previously fitted model. This is how the BO loop
// refits the surrogate each cycle.
func Refit(prev *GP, xs [][]float64, ys []float64) (*GP, error) {
	if prev == nil {
		panic("gp: Refit with nil previous model")
	}
	return fitWarm(xs, ys, prev.cfg, prev.warmParams)
}

// WithData conditions a new GP on updated data while keeping the previous
// model's hyperparameters fixed — a factorize-only refit, O(n³) but with
// no marginal-likelihood optimization. BO engines alternate WithData with
// full Refit calls to bound the per-cycle fitting cost.
func WithData(prev *GP, xs [][]float64, ys []float64) (*GP, error) {
	if prev == nil {
		panic("gp: WithData with nil previous model")
	}
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, ErrEmptyData
	}
	cfg := prev.cfg
	d := len(cfg.Lo)
	g := &GP{cfg: cfg, d: d, kern: prev.kern, noise: prev.noise,
		warmParams: prev.warmParams, fitLML: prev.fitLML}
	g.x = mat.NewDense(n, d, nil)
	for i, p := range xs {
		if len(p) != d {
			return nil, fmt.Errorf("gp: point %d has dim %d, want %d", i, len(p), d)
		}
		row := g.x.Row(i)
		for j := range p {
			row[j] = (p[j] - cfg.Lo[j]) / (cfg.Hi[j] - cfg.Lo[j])
		}
	}
	g.yraw = mat.CloneVec(ys)
	// Keep the previous output standardization: hyperparameters were
	// fitted against it.
	g.ymean, g.ystd = prev.ymean, prev.ystd
	g.ys = make([]float64, n)
	for i, v := range ys {
		g.ys[i] = (v - g.ymean) / g.ystd
	}
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}

func fitWarm(xs [][]float64, ys []float64, cfg Config, warm []float64) (*GP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, ErrEmptyData
	}
	d := len(cfg.Lo)
	g := &GP{cfg: cfg, d: d, kern: cfg.newKernel(d)}

	// Normalize inputs and standardize outputs.
	g.x = mat.NewDense(n, d, nil)
	for i, p := range xs {
		if len(p) != d {
			return nil, fmt.Errorf("gp: point %d has dim %d, want %d", i, len(p), d)
		}
		row := g.x.Row(i)
		for j := range p {
			row[j] = (p[j] - cfg.Lo[j]) / (cfg.Hi[j] - cfg.Lo[j])
		}
	}
	g.yraw = mat.CloneVec(ys)
	g.ymean, g.ystd = meanStd(ys)
	if g.ystd < 1e-12 {
		g.ystd = 1 // constant outputs: keep scale identity
	}
	g.ys = make([]float64, n)
	for i, v := range ys {
		g.ys[i] = (v - g.ymean) / g.ystd
	}

	if err := g.optimizeHyper(warm); err != nil {
		return nil, err
	}
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}

func meanStd(v []float64) (mean, std float64) {
	n := float64(len(v))
	for _, x := range v {
		mean += x
	}
	mean /= n
	for _, x := range v {
		std += (x - mean) * (x - mean)
	}
	if len(v) > 1 {
		std = math.Sqrt(std / (n - 1))
	}
	return mean, std
}

// packParams returns [kernelParams..., logNoise?]. Noise is only a free
// parameter when cfg.Noise <= 0.
func (g *GP) packBounds() (lo, hi []float64) {
	lo = append(lo, logVarLo)
	hi = append(hi, logVarHi)
	for i := 0; i < g.d; i++ {
		lo = append(lo, logLenLo)
		hi = append(hi, logLenHi)
	}
	if g.cfg.Noise <= 0 {
		lo = append(lo, logNoiseLo)
		hi = append(hi, logNoiseHi)
	}
	return lo, hi
}

func (g *GP) applyParams(p []float64) {
	nk := g.kern.NumParams()
	g.kern.SetParams(p[:nk])
	if g.cfg.Noise > 0 {
		g.noise = g.cfg.Noise
	} else {
		g.noise = math.Exp(p[nk])
	}
}

func (g *GP) defaultParams() []float64 {
	p := make([]float64, 0, g.kern.NumParams()+1)
	p = append(p, 0) // log σ² = 0
	for i := 0; i < g.d; i++ {
		p = append(p, math.Log(0.3)) // moderate lengthscale on unit cube
	}
	if g.cfg.Noise <= 0 {
		p = append(p, math.Log(1e-4))
	}
	return p
}

// optimizeHyper maximizes the log marginal likelihood over packed params.
func (g *GP) optimizeHyper(warm []float64) error {
	lo, hi := g.packBounds()
	np := len(lo)

	// Subset of data for the LML objective when configured and large.
	fitX, fitY := g.x, g.ys
	if m := g.cfg.FitSubsetMax; m > 0 && g.x.Rows() > m {
		stream := rng.New(g.cfg.Seed, 101)
		perm := stream.Perm(g.x.Rows())[:m]
		fitX = mat.NewDense(m, g.d, nil)
		fitY = make([]float64, m)
		for i, idx := range perm {
			copy(fitX.Row(i), g.x.Row(idx))
			fitY[i] = g.ys[idx]
		}
	}

	// One pooled workspace serves every objective evaluation of this run:
	// the multi-start below is serial (Parallel unset), so the workspace is
	// never shared, and successive fits at the same n reuse its O(n²)
	// buffers through fitPool. Nothing the objective returns aliases the
	// workspace — obj copies the gradient — so it is safe to recycle the
	// moment Run returns.
	nGrad := fitX.Rows()
	ws := fitPool.Get().(*fitWorkspace)
	ws.ensure(nGrad, np, g.kern.NumParams(), (nGrad+lmlGradBand-1)/lmlGradBand)

	obj := func(p, grad []float64) float64 {
		lml, gr, err := g.logMarginalLikelihood(fitX, fitY, p, ws)
		if err != nil {
			// Non-PD even after jitter: return a large penalty pushing away.
			for i := range grad {
				grad[i] = 0
			}
			return 1e10
		}
		for i := range grad {
			grad[i] = -gr[i]
		}
		return -lml
	}

	maxIter := g.cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	restarts := g.cfg.Restarts
	if restarts < 0 {
		restarts = 0
	} else if restarts == 0 {
		restarts = 2
	}
	if warm != nil {
		// Warm-started refits already sit near a good optimum; spend the
		// random-restart budget sparingly.
		restarts /= 2
	}

	starts := make([][]float64, 0, restarts+1)
	if warm != nil && len(warm) == np {
		w := mat.CloneVec(warm)
		for i := range w {
			w[i] = math.Min(math.Max(w[i], lo[i]), hi[i])
		}
		starts = append(starts, w)
	} else {
		starts = append(starts, g.defaultParams())
	}
	stream := rng.New(g.cfg.Seed, 77)
	starts = append(starts, rng.SobolDesign(restarts, lo, hi, stream)...)

	ms := &optim.MultiStart{Local: &optim.LBFGSB{MaxIter: maxIter, GTol: 1e-5, MaxEvals: 2 * maxIter, MaxLineSearch: 12}}
	res := ms.Run(context.Background(), obj, starts, lo, hi)
	fitPool.Put(ws)
	g.applyParams(res.X)
	g.warmParams = mat.CloneVec(res.X)
	g.fitLML = -res.F
	return nil
}

// gramInto fills k (n×n) with K(X,X) + noise·I for the current kernel
// state and returns it. Each row's lower triangle comes from the batched
// kernel.EvalRow fill — bitwise-identical to the per-pair Eval loop it
// replaced (see TestGramIntoMatchesPerPair) — and the strict upper
// triangle is mirrored afterwards. Above gramParallelN both passes split
// over deterministic row bands: every band writes disjoint rows and the
// mirror copies finished values, so the filled matrix is bitwise
// identical to the serial fill for any GOMAXPROCS.
func (g *GP) gramInto(k *mat.Dense, x *mat.Dense) *mat.Dense {
	n := x.Rows()
	if n >= gramParallelN {
		// The closures below escape into the worker pool; they are only
		// materialized on this branch so the sub-threshold path — every
		// objective evaluation of a small fit — stays allocation-free
		// (TestFitObjectiveAllocs).
		workers := runtime.GOMAXPROCS(0)
		if err := parallel.ForEachBand(context.Background(), workers, n, gramRowBand, func(lo, hi int) {
			g.gramFillRows(k, x, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
		if err := parallel.ForEachBand(context.Background(), workers, n, gramRowBand, func(lo, hi int) {
			g.gramMirrorRows(k, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
	} else {
		g.gramFillRows(k, x, 0, n)
		g.gramMirrorRows(k, 0, n)
	}
	return k
}

// gramFillRows fills rows [lo, hi) of k's lower triangle (noise on the
// diagonal) from the batched kernel row fill.
func (g *GP) gramFillRows(k *mat.Dense, x *mat.Dense, lo, hi int) {
	d := x.Cols()
	xd := x.Data()
	for i := lo; i < hi; i++ {
		row := k.Row(i)[:i+1]
		g.kern.EvalRow(row, x.Row(i), xd[:(i+1)*d])
		row[i] += g.noise
	}
}

// gramMirrorRows copies the finished lower triangle into rows [lo, hi)
// of the strict upper triangle. Destination row j's tail
// kd[j·n+j+1 : j·n+n] is contiguous; the strided column reads walk
// values the fill pass finished.
func (g *GP) gramMirrorRows(k *mat.Dense, lo, hi int) {
	n := k.Rows()
	kd := k.Data()
	for j := lo; j < hi; j++ {
		for i := j + 1; i < n; i++ {
			kd[j*n+i] = kd[i*n+j]
		}
	}
}

// logMarginalLikelihood evaluates the LML and its gradient w.r.t. packed
// params p on the given (normalized) data, using ws for every O(n²)
// intermediate. The returned gradient aliases ws.grad and is only valid
// until the next evaluation against the same workspace.
func (g *GP) logMarginalLikelihood(x *mat.Dense, y []float64, p []float64, ws *fitWorkspace) (float64, []float64, error) {
	g.applyParams(p)
	n := x.Rows()
	k := g.gramInto(ws.gram, x)
	if err := ws.chol.Refactorize(k, 0, 0); err != nil {
		return 0, nil, err
	}
	ch := &ws.chol
	alpha := ch.SolveVecInto(ws.alpha, y)
	lml := -0.5*mat.Dot(y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)

	// Gradient: ∂LML/∂θ = ½ tr((ααᵀ − K⁻¹)·∂K/∂θ).
	// A = ααᵀ − K⁻¹ (symmetric), built in place over the pooled inverse.
	a := ch.InverseInto(ws.inv, ws.wt)
	a.Scale(-1)
	a.SymOuterUpdate(1, alpha)

	np := len(p)
	nk := g.kern.NumParams()
	grad := ws.grad[:np]
	for t := range grad {
		grad[t] = 0
	}
	if n >= lmlGradBandN {
		// Banded trace: band b accumulates the partial over its rows' (i, j≤i)
		// pairs into its private slot — in-band order identical to the serial
		// loop — and the partials are reduced in fixed band order below. The
		// partition depends only on n, so the result is bit-identical for any
		// GOMAXPROCS (but deliberately not to the sub-threshold serial fold;
		// the gate keeps golden-trace fits below it).
		bandGrad, bandKg := ws.bandGrad, ws.bandKg
		if err := parallel.ForEachBand(context.Background(), runtime.GOMAXPROCS(0), n, lmlGradBand, func(lo, hi int) {
			b := lo / lmlGradBand
			part := bandGrad[b*nk : (b+1)*nk]
			kg := bandKg[b*nk : (b+1)*nk]
			for t := range part {
				part[t] = 0
			}
			for i := lo; i < hi; i++ {
				xi := x.Row(i)
				arow := a.Row(i)
				for j := 0; j <= i; j++ {
					g.kern.EvalWithGrad(xi, x.Row(j), kg)
					w := arow[j]
					scale := 1.0
					if i != j {
						scale = 2.0 // symmetric off-diagonal counted twice
					}
					for t := 0; t < nk; t++ {
						part[t] += 0.5 * scale * w * kg[t]
					}
				}
			}
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
		nb := (n + lmlGradBand - 1) / lmlGradBand
		for b := 0; b < nb; b++ {
			part := bandGrad[b*nk : (b+1)*nk]
			for t := 0; t < nk; t++ {
				grad[t] += part[t]
			}
		}
	} else {
		kg := ws.kg[:nk]
		for i := 0; i < n; i++ {
			xi := x.Row(i)
			arow := a.Row(i)
			for j := 0; j <= i; j++ {
				g.kern.EvalWithGrad(xi, x.Row(j), kg)
				w := arow[j]
				scale := 1.0
				if i != j {
					scale = 2.0 // symmetric off-diagonal counted twice
				}
				for t := 0; t < nk; t++ {
					grad[t] += 0.5 * scale * w * kg[t]
				}
			}
		}
	}
	if g.cfg.Noise <= 0 {
		// ∂K/∂ log σₙ² = σₙ²·I.
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		grad[nk] = 0.5 * g.noise * tr
	}
	return lml, grad, nil
}

// factorize computes the full-data Cholesky and alpha for prediction.
func (g *GP) factorize() error {
	n := g.x.Rows()
	k := g.gramInto(mat.NewDense(n, n, nil), g.x)
	ch, err := mat.NewCholesky(k, 0, 0)
	if err != nil {
		return fmt.Errorf("gp: final factorization failed: %w", err)
	}
	g.chol = ch
	g.alpha = ch.SolveVec(g.ys)
	g.initWorkspacePool()
	return nil
}

// N returns the number of training points.
func (g *GP) N() int { return g.x.Rows() }

// Lengthscales returns the fitted ARD lengthscales on the normalized unit
// cube, one per input dimension. TuRBO uses these to shape its trust region.
func (g *GP) Lengthscales() []float64 { return kernel.Lengthscales(g.kern) }

// Hyperparameters returns the packed log-hyperparameters (kernel params
// followed by log-noise when fitted).
func (g *GP) Hyperparameters() []float64 { return mat.CloneVec(g.warmParams) }

// normalizeInto maps a raw-space point to the unit cube, writing into the
// caller's buffer (length d).
func (g *GP) normalizeInto(dst, x []float64) {
	if len(x) != g.d {
		panic(fmt.Sprintf("gp: point dim %d != %d", len(x), g.d))
	}
	for j := range x {
		dst[j] = (x[j] - g.cfg.Lo[j]) / (g.cfg.Hi[j] - g.cfg.Lo[j])
	}
}

// Predict returns the posterior mean and standard deviation of the latent
// function at a raw-space point x. Steady state it performs no heap
// allocations: all scratch comes from the model's workspace pool.
func (g *GP) Predict(x []float64) (mean, sd float64) {
	ws := g.ws.Get().(*predictWorkspace)
	g.normalizeInto(ws.u, x)
	kernel.EvalRowAuto(g.kern, ws.ks, ws.u, g.x.Data())
	mu := mat.Dot(ws.ks, g.alpha)
	g.chol.ForwardSolveVecInto(ws.v, ws.ks)
	variance := g.kern.Eval(ws.u, ws.u) - mat.Dot(ws.v, ws.v)
	if variance < 0 {
		variance = 0
	}
	mean, sd = g.ymean+g.ystd*mu, g.ystd*math.Sqrt(variance)
	g.ws.Put(ws)
	return mean, sd
}

// PredictWithGrad returns the posterior mean and sd at x and writes their
// gradients with respect to x (raw space) into the caller-provided dMean
// and dSD (length Dim). Used by gradient-based EI/UCB optimization; the
// destination-passing contract keeps it allocation-free in steady state.
func (g *GP) PredictWithGrad(x []float64, dMean, dSD []float64) (mean, sd float64) {
	if len(dMean) != g.d || len(dSD) != g.d {
		panic(fmt.Sprintf("gp: gradient buffer lengths %d,%d != %d", len(dMean), len(dSD), g.d))
	}
	n := g.N()
	ws := g.ws.Get().(*predictWorkspace)
	u := ws.u
	g.normalizeInto(u, x)
	// One pass over the training block fills k★ and every ∂k(u, x_i)/∂u row.
	kernel.EvalRowWithGradAuto(g.kern, ws.ks, ws.kg, u, g.x.Data())
	g.chol.ForwardSolveVecInto(ws.v, ws.ks) // L⁻¹ k*
	g.chol.BackSolveVecInto(ws.w, ws.v)     // K⁻¹ k*
	mu := mat.Dot(ws.ks, g.alpha)           // standardized mean
	variance := g.kern.Eval(u, u) - mat.Dot(ws.v, ws.v)
	if variance < 1e-300 {
		variance = 1e-300
	}
	dMeanU, dVarU := ws.dMeanU, ws.dVarU
	for j := range dMeanU {
		dMeanU[j] = 0
		dVarU[j] = 0
	}
	for i := 0; i < n; i++ {
		kg := ws.kg[i*g.d : (i+1)*g.d]
		ai := g.alpha[i]
		wi := ws.w[i]
		for j := 0; j < g.d; j++ {
			dMeanU[j] += ai * kg[j]
			dVarU[j] += -2 * wi * kg[j] // ∂(k**−k*ᵀK⁻¹k*)/∂u; k** constant for stationary kernels
		}
	}
	sdStd := math.Sqrt(variance)
	for j := 0; j < g.d; j++ {
		du := 1 / (g.cfg.Hi[j] - g.cfg.Lo[j]) // chain rule u→x
		dMean[j] = g.ystd * dMeanU[j] * du
		dSD[j] = g.ystd * dVarU[j] / (2 * sdStd) * du
	}
	mean, sd = g.ymean+g.ystd*mu, g.ystd*sdStd
	g.ws.Put(ws)
	return mean, sd
}

// JointPrediction is the posterior over a batch of q points: mean vector
// and the lower Cholesky factor of the covariance, both in raw output
// units. Monte-Carlo q-EI samples y = Mean + CovChol·z with z ~ N(0, I).
type JointPrediction = surrogate.JointPrediction

// PredictJoint returns the joint posterior of the latent function at the
// given raw-space points. An empty batch is an error wrapping
// surrogate.ErrEmptyBatch.
func (g *GP) PredictJoint(xs [][]float64) (*JointPrediction, error) {
	q := len(xs)
	if q == 0 {
		return nil, fmt.Errorf("gp: PredictJoint: %w", surrogate.ErrEmptyBatch)
	}
	n := g.N()
	ustore := mat.NewDense(q, g.d, nil) // row i holds the normalized x_i
	for i, x := range xs {
		g.normalizeInto(ustore.Row(i), x)
	}
	mean := make([]float64, q)
	vstore := mat.NewDense(q, n, nil) // row i holds L⁻¹ k*(x_i)
	if n >= parallelJointN && q > 1 {
		// Large-n batch path: the q fill+solve columns are independent, so
		// split them across workers. Row i's k★ lands in vstore.Row(i) and
		// is forward-solved in place (ForwardSolveVecInto permits dst
		// aliasing b), so no scratch is shared between iterations and the
		// result is bitwise-identical to the serial loop below.
		if err := parallel.ForEach(context.Background(), runtime.GOMAXPROCS(0), q, func(i int) {
			row := vstore.Row(i)
			g.kern.EvalRow(row, ustore.Row(i), g.x.Data())
			mean[i] = g.ymean + g.ystd*mat.Dot(row, g.alpha)
			g.chol.ForwardSolveVecInto(row, row)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
	} else {
		ws := g.ws.Get().(*predictWorkspace)
		ks := ws.ks
		for i := 0; i < q; i++ {
			kernel.EvalRowAuto(g.kern, ks, ustore.Row(i), g.x.Data())
			mean[i] = g.ymean + g.ystd*mat.Dot(ks, g.alpha)
			g.chol.ForwardSolveVecInto(vstore.Row(i), ks)
		}
		g.ws.Put(ws)
	}
	cov := mat.NewDense(q, q, nil)
	for i := 0; i < q; i++ {
		for j := 0; j <= i; j++ {
			c := g.kern.Eval(ustore.Row(i), ustore.Row(j)) - mat.Dot(vstore.Row(i), vstore.Row(j))
			c *= g.ystd * g.ystd
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	ch, err := mat.NewCholesky(cov, 1e-10, 1e-2)
	if err != nil {
		return nil, fmt.Errorf("gp: joint covariance not PD: %w", err)
	}
	// L materializes a fresh matrix on the packed factor — no Clone needed.
	return &JointPrediction{Mean: mean, CovChol: ch.L()}, nil
}

// Fantasize returns a new GP that additionally conditions on the
// observation (x, y) in raw space without re-estimating hyperparameters —
// the Kriging-Believer partial update. Cost is O(n²) via incremental
// Cholesky extension. The result is returned as a surrogate.Surrogate
// (always a *GP underneath) so GP satisfies the surrogate interface.
func (g *GP) Fantasize(x []float64, y float64) (surrogate.Surrogate, error) {
	n := g.N()
	ws := g.ws.Get().(*predictWorkspace)
	u := ws.u
	g.normalizeInto(u, x)
	// An n×1 cross block in column-major order is just the column itself,
	// so the batched kernel row fills it directly (k is symmetric, bitwise)
	// and ExtendCols consumes it without any transpose pass.
	bcol := make([]float64, n)
	kernel.EvalRowAuto(g.kern, bcol, u, g.x.Data())
	cc := mat.NewDense(1, 1, nil)
	cc.Set(0, 0, g.kern.Eval(u, u)+g.noise)
	ext, err := g.chol.ExtendCols(bcol, cc)
	if err != nil {
		g.ws.Put(ws)
		return nil, fmt.Errorf("gp: fantasy extension failed: %w", err)
	}
	ng := &GP{
		cfg: g.cfg, kern: g.kern, d: g.d,
		ymean: g.ymean, ystd: g.ystd,
		noise: g.noise, chol: ext,
		warmParams: g.warmParams, fitLML: g.fitLML,
	}
	ng.x = mat.NewDense(n+1, g.d, nil)
	copy(ng.x.Data(), g.x.Data())
	copy(ng.x.Row(n), u)
	g.ws.Put(ws)
	ng.yraw = append(mat.CloneVec(g.yraw), y)
	ng.ys = append(mat.CloneVec(g.ys), (y-g.ymean)/g.ystd)
	ng.alpha = ext.SolveVec(ng.ys)
	ng.initWorkspacePool()
	return ng, nil
}

// Info implements surrogate.Surrogate.
func (g *GP) Info() surrogate.Info {
	return surrogate.Info{
		Family:          "GP",
		N:               g.N(),
		Dim:             g.d,
		Score:           g.fitLML,
		Hyperparameters: g.Hyperparameters(),
	}
}

// BestObserved returns the index, point (raw space) and value of the best
// training observation according to minimize (true → smallest y).
func (g *GP) BestObserved(minimize bool) (idx int, x []float64, y float64) {
	idx = 0
	y = g.yraw[0]
	for i, v := range g.yraw {
		if (minimize && v < y) || (!minimize && v > y) {
			idx, y = i, v
		}
	}
	u := g.x.Row(idx)
	x = make([]float64, g.d)
	for j := range x {
		x[j] = g.cfg.Lo[j] + u[j]*(g.cfg.Hi[j]-g.cfg.Lo[j])
	}
	return idx, x, y
}
