// Package kernel implements stationary covariance kernels with Automatic
// Relevance Determination (ARD) lengthscales for Gaussian process
// regression: Matérn-5/2 (the paper's choice), Matérn-3/2 and the squared
// exponential. All kernels expose analytic derivatives with respect to
// their log-hyperparameters (for marginal-likelihood fitting) and with
// respect to the input point (for gradient-based acquisition optimization).
package kernel

import (
	"fmt"
	"math"
)

// Kernel is a stationary ARD covariance function k(x, y) parameterized by a
// log-output-scale and per-dimension log-lengthscales.
//
// Hyperparameters are always handled on the log scale, packed as
// [log σ², log ℓ_1, …, log ℓ_d].
type Kernel interface {
	// Dim returns the input dimension d.
	Dim() int
	// NumParams returns the number of hyperparameters (1 + d).
	NumParams() int
	// Params appends the packed log-hyperparameters to dst.
	Params(dst []float64) []float64
	// SetParams unpacks log-hyperparameters from p.
	SetParams(p []float64)
	// Eval returns k(x, y).
	Eval(x, y []float64) float64
	// EvalRow writes k(x, X_i) into dst[i] for every row X_i of the
	// row-major block xs, which holds len(dst) contiguous rows of Dim()
	// values each. It is the batched form of Eval used to fill the k★
	// cross-covariance vector in one pass over the training block, and
	// produces bitwise-identical values to per-row Eval calls.
	EvalRow(dst []float64, x []float64, xs []float64)
	// EvalRowWithGrad is EvalRow plus input gradients: it additionally
	// writes ∂k(x, X_i)/∂x into gradx[i*Dim() : (i+1)*Dim()] for each row,
	// matching per-row GradX bitwise. gradx must have length
	// len(dst)·Dim().
	EvalRowWithGrad(dst, gradx []float64, x []float64, xs []float64)
	// EvalWithGrad returns k(x, y) and writes ∂k/∂θ_j for each
	// log-hyperparameter θ_j into grad, which must have length NumParams().
	EvalWithGrad(x, y []float64, grad []float64) float64
	// GradX writes ∂k(x,y)/∂x into grad, which must have length Dim().
	//lint:ignore unusedexport per-pair reference that TestEvalRowMatchesEval and TestGradXFiniteDiff check EvalRowWithGrad against
	GradX(x, y []float64, grad []float64)
}

// profile is the radial part of a stationary kernel: given the squared
// scaled distance r², it returns φ(r²) with φ(0)=1, and dφ/d(r²).
type profile interface {
	val(r2 float64) float64
	valDeriv(r2 float64) (phi, dPhiDr2 float64)
}

// ard is the shared ARD machinery: k(x,y) = σ²·φ(Σ((x_i−y_i)/ℓ_i)²).
// Derived quantities (variance, inverse lengthscales) are cached on
// SetParams: kernel evaluation is the innermost loop of GP fitting and
// must not call math.Exp per pair.
type ard struct {
	p           profile
	dim         int
	logVariance float64   // log σ²
	logLength   []float64 // log ℓ_i

	variance float64   // σ²
	invLen   []float64 // 1/ℓ_i
	inv2Len  []float64 // 1/ℓ_i²
}

func newARD(p profile, dim int) *ard {
	if dim < 1 {
		panic(fmt.Sprintf("kernel: dimension %d < 1", dim))
	}
	k := &ard{
		p: p, dim: dim, logVariance: 0,
		logLength: make([]float64, dim),
		invLen:    make([]float64, dim),
		inv2Len:   make([]float64, dim),
	}
	k.refresh()
	return k
}

// refresh recomputes the cached derived parameters.
func (k *ard) refresh() {
	k.variance = math.Exp(k.logVariance)
	for i, ll := range k.logLength {
		inv := math.Exp(-ll)
		k.invLen[i] = inv
		k.inv2Len[i] = inv * inv
	}
}

func (k *ard) Dim() int       { return k.dim }
func (k *ard) NumParams() int { return 1 + k.dim }

func (k *ard) Params(dst []float64) []float64 {
	dst = append(dst, k.logVariance)
	return append(dst, k.logLength...)
}

func (k *ard) SetParams(p []float64) {
	if len(p) != 1+k.dim {
		panic(fmt.Sprintf("kernel: %d params for dim %d", len(p), k.dim))
	}
	k.logVariance = p[0]
	copy(k.logLength, p[1:])
	k.refresh()
}

func (k *ard) r2(x, y []float64) float64 {
	if len(x) != k.dim || len(y) != k.dim {
		panic(fmt.Sprintf("kernel: point dims %d,%d != %d", len(x), len(y), k.dim))
	}
	var s float64
	for i := 0; i < k.dim; i++ {
		d := (x[i] - y[i]) * k.invLen[i]
		s += d * d
	}
	return s
}

func (k *ard) Eval(x, y []float64) float64 {
	return k.variance * k.p.val(k.r2(x, y))
}

func (k *ard) EvalWithGrad(x, y []float64, grad []float64) float64 {
	if len(grad) != k.NumParams() {
		panic(fmt.Sprintf("kernel: grad length %d != %d", len(grad), k.NumParams()))
	}
	r2 := k.r2(x, y)
	phi, dphi := k.p.valDeriv(r2)
	v := k.variance
	kv := v * phi
	grad[0] = kv // ∂k/∂ log σ² = k
	vd := -2 * v * dphi
	for i := 0; i < k.dim; i++ {
		d := x[i] - y[i]
		// ∂r²/∂ log ℓ_i = −2 d² / ℓ_i²
		grad[1+i] = vd * d * d * k.inv2Len[i]
	}
	return kv
}

// checkRowBlock validates the batched-evaluation operands.
func (k *ard) checkRowBlock(n int, x, xs []float64) {
	if len(x) != k.dim {
		panic(fmt.Sprintf("kernel: point dim %d != %d", len(x), k.dim))
	}
	if len(xs) != n*k.dim {
		panic(fmt.Sprintf("kernel: row block length %d != %d rows × dim %d", len(xs), n, k.dim))
	}
}

func (k *ard) EvalRow(dst []float64, x []float64, xs []float64) {
	k.checkRowBlock(len(dst), x, xs)
	d := k.dim
	x = x[:d]
	inv := k.invLen[:d]
	v := k.variance
	for i := range dst {
		row := xs[i*d : i*d+d : i*d+d]
		var s float64
		for j, rv := range row {
			diff := (x[j] - rv) * inv[j]
			s += diff * diff
		}
		dst[i] = v * k.p.val(s)
	}
}

func (k *ard) EvalRowWithGrad(dst, gradx []float64, x []float64, xs []float64) {
	k.checkRowBlock(len(dst), x, xs)
	d := k.dim
	if len(gradx) != len(dst)*d {
		panic(fmt.Sprintf("kernel: gradx length %d != %d", len(gradx), len(dst)*d))
	}
	x = x[:d]
	inv := k.invLen[:d]
	inv2 := k.inv2Len[:d]
	v := k.variance
	for i := range dst {
		row := xs[i*d : i*d+d : i*d+d]
		var s float64
		for j, rv := range row {
			diff := (x[j] - rv) * inv[j]
			s += diff * diff
		}
		phi, dphi := k.p.valDeriv(s)
		dst[i] = v * phi
		vd := 2 * v * dphi
		grow := gradx[i*d : i*d+d]
		grow = grow[:len(row)]
		for j, rv := range row {
			grow[j] = vd * (x[j] - rv) * inv2[j]
		}
	}
}

//lint:ignore unusedexport per-pair reference that TestEvalRowMatchesEval and TestGradXFiniteDiff check EvalRowWithGrad against
func (k *ard) GradX(x, y []float64, grad []float64) {
	if len(grad) != k.dim {
		panic(fmt.Sprintf("kernel: gradX length %d != %d", len(grad), k.dim))
	}
	r2 := k.r2(x, y)
	_, dphi := k.p.valDeriv(r2)
	vd := 2 * k.variance * dphi
	for i := 0; i < k.dim; i++ {
		// ∂r²/∂x_i = 2(x_i − y_i)/ℓ_i²
		grad[i] = vd * (x[i] - y[i]) * k.inv2Len[i]
	}
}

// --- Matérn 5/2 -------------------------------------------------------------

type matern52Profile struct{}

func (matern52Profile) val(r2 float64) float64 {
	t := math.Sqrt(5 * r2)
	return (1 + t + t*t/3) * math.Exp(-t)
}

func (matern52Profile) valDeriv(r2 float64) (float64, float64) {
	t := math.Sqrt(5 * r2)
	e := math.Exp(-t)
	phi := (1 + t + t*t/3) * e
	// dφ/d(r²) = −(5/6)(1+t)e^{−t}, smooth through r=0.
	return phi, -(5.0 / 6.0) * (1 + t) * e
}

// Matern52 is the ARD Matérn-5/2 kernel used throughout the paper.
type Matern52 struct{ ard }

// NewMatern52 returns a unit-variance, unit-lengthscale Matérn-5/2 kernel.
func NewMatern52(dim int) *Matern52 {
	return &Matern52{*newARD(matern52Profile{}, dim)}
}

// --- Matérn 3/2 -------------------------------------------------------------

type matern32Profile struct{}

func (matern32Profile) val(r2 float64) float64 {
	t := math.Sqrt(3 * r2)
	return (1 + t) * math.Exp(-t)
}

func (matern32Profile) valDeriv(r2 float64) (float64, float64) {
	t := math.Sqrt(3 * r2)
	e := math.Exp(-t)
	// dφ/d(r²) = −(3/2)e^{−t}
	return (1 + t) * e, -1.5 * e
}

// Matern32 is the ARD Matérn-3/2 kernel.
type Matern32 struct{ ard }

// NewMatern32 returns a unit-variance, unit-lengthscale Matérn-3/2 kernel.
func NewMatern32(dim int) *Matern32 {
	return &Matern32{*newARD(matern32Profile{}, dim)}
}

// --- Squared exponential ----------------------------------------------------

type seProfile struct{}

func (seProfile) val(r2 float64) float64 { return math.Exp(-0.5 * r2) }

func (seProfile) valDeriv(r2 float64) (float64, float64) {
	e := math.Exp(-0.5 * r2)
	return e, -0.5 * e
}

// SE is the ARD squared-exponential (RBF) kernel.
type SE struct{ ard }

// NewSE returns a unit-variance, unit-lengthscale squared-exponential kernel.
func NewSE(dim int) *SE {
	return &SE{*newARD(seProfile{}, dim)}
}

// Lengthscales returns the (linear-scale) ARD lengthscales of any kernel
// built on the shared ARD machinery.
func Lengthscales(k Kernel) []float64 {
	p := k.Params(nil)
	out := make([]float64, k.Dim())
	for i := range out {
		out[i] = math.Exp(p[1+i])
	}
	return out
}
