package gp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// RFF is a random-Fourier-feature approximation of a stationary-kernel GP
// (Rahimi & Recht): k(x, y) ≈ φ(x)ᵀφ(y) with φ_m(x) = √(2σ²/M)·cos(wᵀx+b),
// where the frequencies w follow the kernel's spectral density. Fitting is
// Bayesian linear regression over the M feature weights, so training costs
// O(n·M² + M³) and prediction O(M) — independent of n. This is the
// "fast-to-fit surrogate" remedy the paper's §4 recommends for the
// time-budget scalability wall, and its weight-space posterior yields
// analytic, differentiable Thompson sample paths for batch acquisition.
//
// Frequencies for the Matérn-ν family are drawn from a multivariate
// Student-t with 2ν degrees of freedom; the squared-exponential uses a
// Gaussian.
type RFF struct {
	cfg      Config
	features int
	d        int

	w   *mat.Dense // M×d frequency matrix (normalized input space)
	b   []float64  // M phase offsets
	amp float64    // √(2σ²/M)

	ymean, ystd float64
	noise       float64

	chol  *mat.Cholesky // factor of A = ΦᵀΦ + σₙ²·I, M×M
	wMean []float64     // posterior weight mean, length M
	rhs   []float64     // Φᵀ·ys (standardized), kept for fantasy updates

	xs [][]float64 // raw training inputs (cloned)
	ys []float64   // raw training outputs

	ws *sync.Pool // *rffWorkspace scratch sized for this model's (M, d)
}

// rffWorkspace is the per-call prediction scratch of an RFF model,
// recycled through the model's sync.Pool exactly like the exact GP's
// predictWorkspace.
type rffWorkspace struct {
	u      []float64 // d: normalized query point
	phi    []float64 // M: feature vector φ(u)
	v      []float64 // M: L⁻¹φ or A⁻¹φ
	dphi   []float64 // M: −amp·sin(arg) per feature
	dMeanU []float64 // d
	dVarU  []float64 // d
}

// initWorkspacePool equips the model with its scratch pool. Must be
// called once, after features and d are final.
func (r *RFF) initWorkspacePool() {
	m, d := r.features, r.d
	r.ws = &sync.Pool{New: func() any {
		return &rffWorkspace{
			u:      make([]float64, d),
			phi:    make([]float64, m),
			v:      make([]float64, m),
			dphi:   make([]float64, m),
			dMeanU: make([]float64, d),
			dVarU:  make([]float64, d),
		}
	}}
}

// RFFConfig extends Config with the feature count.
type RFFConfig struct {
	Config
	// Features is the number of random Fourier features M (default 256).
	Features int
}

// FitRFF trains an RFF surrogate on raw-space observations, reusing the
// lengthscales and noise of a previously fitted exact GP when prev is
// non-nil (the cheap path used inside BO loops: fit the exact GP rarely,
// refresh the RFF every cycle), or sensible defaults otherwise.
func FitRFF(xs [][]float64, ys []float64, cfg RFFConfig, prev *GP) (*RFF, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, ErrEmptyData
	}
	m := cfg.Features
	if m <= 0 {
		m = 256
	}
	d := len(cfg.Lo)

	// Hyperparameters: borrow from the exact GP when available.
	lengthscales := make([]float64, d)
	variance := 1.0
	noise := cfg.Noise
	if prev != nil {
		copy(lengthscales, prev.Lengthscales())
		p := prev.warmParams
		variance = math.Exp(p[0])
		if noise <= 0 {
			noise = prev.noise
		}
	} else {
		for i := range lengthscales {
			lengthscales[i] = 0.3
		}
		if noise <= 0 {
			noise = 1e-4
		}
	}

	r := &RFF{cfg: cfg.Config, features: m, d: d, noise: noise}
	r.amp = math.Sqrt(2 * variance / float64(m))

	// Draw frequencies from the Matérn-5/2 spectral density: a
	// multivariate Student-t with 2ν = 5 degrees of freedom, scaled by the
	// inverse lengthscales. (Config.Kernel SE selects a Gaussian instead.)
	stream := rng.New(cfg.Seed, 4242)
	r.w = mat.NewDense(m, d, nil)
	r.b = make([]float64, m)
	const dof = 5.0
	for i := 0; i < m; i++ {
		row := r.w.Row(i)
		scale := 1.0
		if cfg.Kernel != SE {
			// χ²_dof via sum of squared normals.
			var chi2 float64
			for k := 0; k < int(dof); k++ {
				z := stream.Norm()
				chi2 += z * z
			}
			scale = math.Sqrt(dof / chi2)
		}
		for j := 0; j < d; j++ {
			row[j] = stream.Norm() / lengthscales[j] * scale
		}
		r.b[i] = stream.Uniform(0, 2*math.Pi)
	}

	// Standardize outputs.
	r.ymean, r.ystd = meanStd(ys)
	if r.ystd < 1e-12 {
		r.ystd = 1
	}

	// Feature matrix Φ (n×M) and normal equations.
	phi := mat.NewDense(n, m, nil)
	u := make([]float64, d)
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("gp: rff point %d has dim %d, want %d", i, len(x), d)
		}
		for j := range x {
			u[j] = (x[j] - cfg.Lo[j]) / (cfg.Hi[j] - cfg.Lo[j])
		}
		r.featurize(u, phi.Row(i))
	}
	a := mat.NewDense(m, m, nil)
	for i := 0; i < n; i++ {
		a.SymOuterUpdate(1, phi.Row(i))
	}
	for i := 0; i < m; i++ {
		a.Add(i, i, noise)
	}
	ch, err := mat.NewCholesky(a, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("gp: rff normal equations not PD: %w", err)
	}
	r.chol = ch
	// Posterior mean weights: A⁻¹ Φᵀ ys.
	rhs := make([]float64, m)
	for i := 0; i < n; i++ {
		ysd := (ys[i] - r.ymean) / r.ystd
		mat.AxpyVec(ysd, phi.Row(i), rhs)
	}
	r.rhs = rhs
	r.wMean = ch.SolveVec(rhs)
	// Retain the raw data: BestObserved and Fantasize need it.
	r.xs = make([][]float64, n)
	for i, x := range xs {
		r.xs[i] = mat.CloneVec(x)
	}
	r.ys = mat.CloneVec(ys)
	r.initWorkspacePool()
	return r, nil
}

// featurize writes φ(u) for a normalized point u into dst (length M).
func (r *RFF) featurize(u []float64, dst []float64) {
	for i := 0; i < r.features; i++ {
		dst[i] = r.amp * math.Cos(mat.Dot(r.w.Row(i), u)+r.b[i])
	}
}

// Predict returns the posterior mean and standard deviation at a raw-space
// point. Steady state it performs no heap allocations.
func (r *RFF) Predict(x []float64) (mean, sd float64) {
	ws := r.ws.Get().(*rffWorkspace)
	r.normalizeInto(ws.u, x)
	r.featurize(ws.u, ws.phi)
	mu := mat.Dot(ws.phi, r.wMean)
	// Weight-space posterior: Cov θ = σₙ²·A⁻¹ with A = ΦᵀΦ + σₙ²·I, so
	// Var f(x) = σₙ²·φᵀA⁻¹φ = σₙ²·‖L⁻¹φ‖².
	r.chol.ForwardSolveVecInto(ws.v, ws.phi)
	variance := r.noise * mat.Dot(ws.v, ws.v)
	if variance < 0 {
		variance = 0
	}
	mean, sd = r.ymean+r.ystd*mu, r.ystd*math.Sqrt(variance)
	r.ws.Put(ws)
	return mean, sd
}

func (r *RFF) normalizeInto(dst, x []float64) {
	if len(x) != r.d {
		panic(fmt.Sprintf("gp: rff point dim %d != %d", len(x), r.d))
	}
	for j := range x {
		dst[j] = (x[j] - r.cfg.Lo[j]) / (r.cfg.Hi[j] - r.cfg.Lo[j])
	}
}

// PredictWithGrad returns the posterior mean and sd at x and writes their
// gradients with respect to x (raw space) into the caller-provided dMean
// and dSD. Both are analytic: the feature map is a cosine expansion, so
// ∂φ_m/∂u_j = −amp·sin(wᵀu+b)·w_mj.
func (r *RFF) PredictWithGrad(x []float64, dMean, dSD []float64) (mean, sd float64) {
	if len(dMean) != r.d || len(dSD) != r.d {
		panic(fmt.Sprintf("gp: rff gradient buffer lengths %d,%d != %d", len(dMean), len(dSD), r.d))
	}
	m := r.features
	ws := r.ws.Get().(*rffWorkspace)
	u := ws.u
	r.normalizeInto(u, x)
	phi, dphiCoef := ws.phi, ws.dphi // dphi holds −amp·sin(arg), per feature
	for i := 0; i < m; i++ {
		arg := mat.Dot(r.w.Row(i), u) + r.b[i]
		phi[i] = r.amp * math.Cos(arg)
		dphiCoef[i] = -r.amp * math.Sin(arg)
	}
	mu := mat.Dot(phi, r.wMean)
	a := r.chol.SolveVecInto(ws.v, phi) // A⁻¹φ
	variance := r.noise * mat.Dot(phi, a)
	if variance < 1e-300 {
		variance = 1e-300
	}
	sdStd := math.Sqrt(variance)

	dMeanU, dVarU := ws.dMeanU, ws.dVarU
	for j := range dMeanU {
		dMeanU[j] = 0
		dVarU[j] = 0
	}
	for i := 0; i < m; i++ {
		wrow := r.w.Row(i)
		cm := r.wMean[i] * dphiCoef[i]
		cv := 2 * r.noise * a[i] * dphiCoef[i]
		for j := 0; j < r.d; j++ {
			dMeanU[j] += cm * wrow[j]
			dVarU[j] += cv * wrow[j]
		}
	}
	for j := 0; j < r.d; j++ {
		du := 1 / (r.cfg.Hi[j] - r.cfg.Lo[j])
		dMean[j] = r.ystd * dMeanU[j] * du
		dSD[j] = r.ystd * dVarU[j] / (2 * sdStd) * du
	}
	mean, sd = r.ymean+r.ystd*mu, r.ystd*sdStd
	r.ws.Put(ws)
	return mean, sd
}

// PredictJoint returns the joint posterior over a batch of raw-space
// points. In weight space Cov(f(x_i), f(x_j)) = σₙ²·φ_iᵀA⁻¹φ_j, so the
// batch covariance follows from one forward solve per point.
func (r *RFF) PredictJoint(xs [][]float64) (*surrogate.JointPrediction, error) {
	q := len(xs)
	if q == 0 {
		return nil, fmt.Errorf("gp: rff PredictJoint: %w", surrogate.ErrEmptyBatch)
	}
	m := r.features
	mean := make([]float64, q)
	vstore := mat.NewDense(q, m, nil) // row i holds L⁻¹φ(x_i)
	ws := r.ws.Get().(*rffWorkspace)
	for i, x := range xs {
		r.normalizeInto(ws.u, x)
		r.featurize(ws.u, ws.phi)
		mean[i] = r.ymean + r.ystd*mat.Dot(ws.phi, r.wMean)
		r.chol.ForwardSolveVecInto(vstore.Row(i), ws.phi)
	}
	r.ws.Put(ws)
	cov := mat.NewDense(q, q, nil)
	scale := r.ystd * r.ystd * r.noise
	for i := 0; i < q; i++ {
		for j := 0; j <= i; j++ {
			c := scale * mat.Dot(vstore.Row(i), vstore.Row(j))
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	ch, err := mat.NewCholesky(cov, 1e-10, 1e-2)
	if err != nil {
		return nil, fmt.Errorf("gp: rff joint covariance not PD: %w", err)
	}
	// L materializes a fresh matrix on the packed factor — no Clone needed.
	return &surrogate.JointPrediction{Mean: mean, CovChol: ch.L()}, nil
}

// Fantasize conditions the weight-space posterior on one extra observation
// (x, y) without redrawing features or re-standardizing: the normal
// equations gain a rank-1 term, A' = A + φφᵀ, rhs' = rhs + φ·ỹ. The
// refactorization is O(M³); acceptable because fantasy updates are not on
// the Thompson-sampling hot path.
func (r *RFF) Fantasize(x []float64, y float64) (surrogate.Surrogate, error) {
	m := r.features
	u := make([]float64, r.d)
	r.normalizeInto(u, x)
	phi := make([]float64, m)
	r.featurize(u, phi)

	// Rebuild A = L·Lᵀ from the stored factor, then apply the update.
	l := r.chol.L()
	a := mat.NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			var s float64
			for k := 0; k <= j; k++ {
				s += li[k] * lj[k]
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	a.SymOuterUpdate(1, phi)
	ch, err := mat.NewCholesky(a, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("gp: rff fantasy refactorization failed: %w", err)
	}

	ng := &RFF{
		cfg: r.cfg, features: m, d: r.d,
		w: r.w, b: r.b, amp: r.amp,
		ymean: r.ymean, ystd: r.ystd, noise: r.noise,
		chol: ch,
	}
	ng.rhs = mat.CloneVec(r.rhs)
	mat.AxpyVec((y-r.ymean)/r.ystd, phi, ng.rhs)
	ng.wMean = ch.SolveVec(ng.rhs)
	ng.xs = append(append([][]float64(nil), r.xs...), mat.CloneVec(x))
	ng.ys = append(mat.CloneVec(r.ys), y)
	ng.initWorkspacePool()
	return ng, nil
}

// BestObserved returns the index, point and value of the best training
// observation under the given optimization sense.
func (r *RFF) BestObserved(minimize bool) (idx int, x []float64, y float64) {
	idx = 0
	y = r.ys[0]
	for i, v := range r.ys {
		if (minimize && v < y) || (!minimize && v > y) {
			idx, y = i, v
		}
	}
	return idx, mat.CloneVec(r.xs[idx]), y
}

// Info implements surrogate.Surrogate. Score is the negative training MSE
// in raw output units (the weight posterior has no cheap exact LML once
// the feature expansion replaces the kernel).
func (r *RFF) Info() surrogate.Info {
	var mse float64
	for i, x := range r.xs {
		mu, _ := r.Predict(x)
		d := mu - r.ys[i]
		mse += d * d
	}
	mse /= float64(len(r.ys))
	return surrogate.Info{Family: "RFF", N: len(r.ys), Dim: r.d, Score: -mse}
}

// SamplePath draws one posterior sample of the latent function as an
// analytic, differentiable function of x (raw space): f(x) = φ(x)ᵀθ with
// θ ~ N(wMean, σₙ²·A⁻¹). Each call consumes stream randomness; the
// returned closures are valid independently and are safe for concurrent
// use with each other.
func (r *RFF) SamplePath(stream *rng.Stream) (f func(x []float64) float64, grad func(x, g []float64) float64) {
	// θ = wMean + √σₙ²·L⁻ᵀ z solves cov = σₙ²·A⁻¹ = σₙ²·(LLᵀ)⁻¹.
	z := stream.NormVec(r.features)
	back := r.chol.BackSolveVec(z)
	theta := mat.CloneVec(r.wMean)
	mat.AxpyVec(math.Sqrt(r.noise), back, theta)

	// Normalized-input scratch shared by both closures; pooled so each
	// closure stays safe for concurrent callers (parallel multi-start
	// optimizes one path from several goroutines at once).
	d := r.d
	upool := &sync.Pool{New: func() any { b := make([]float64, d); return &b }}
	eval := func(x []float64) float64 {
		ub := upool.Get().(*[]float64)
		u := *ub
		r.normalizeInto(u, x)
		var s float64
		for i := 0; i < r.features; i++ {
			s += theta[i] * r.amp * math.Cos(mat.Dot(r.w.Row(i), u)+r.b[i])
		}
		upool.Put(ub)
		return r.ymean + r.ystd*s
	}
	gradEval := func(x, g []float64) float64 {
		ub := upool.Get().(*[]float64)
		u := *ub
		r.normalizeInto(u, x)
		for j := range g {
			g[j] = 0
		}
		var s float64
		for i := 0; i < r.features; i++ {
			arg := mat.Dot(r.w.Row(i), u) + r.b[i]
			s += theta[i] * r.amp * math.Cos(arg)
			coef := -theta[i] * r.amp * math.Sin(arg)
			wrow := r.w.Row(i)
			for j := 0; j < r.d; j++ {
				g[j] += coef * wrow[j] / (r.cfg.Hi[j] - r.cfg.Lo[j])
			}
		}
		mat.ScaleVec(r.ystd, g)
		upool.Put(ub)
		return r.ymean + r.ystd*s
	}
	return eval, gradEval
}
