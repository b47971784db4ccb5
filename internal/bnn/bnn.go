// Package bnn implements a deep-ensemble "Bayesian" neural network
// surrogate: an ensemble of small MLPs trained from independent
// initializations on bootstrap resamples, whose member disagreement
// provides the epistemic uncertainty that acquisition functions need. It
// is the surrogate family of the authors' companion study (Briffoteaux et
// al. 2020, "Parallel surrogate-assisted optimization: Batched Bayesian
// Neural Network-assisted GA versus q-EGO", the paper's reference [8]) and
// one of the "fast-to-fit surrogates" the paper's §4 recommends: training
// scales linearly in the data set size, unlike the O(n³) exact GP.
//
// Everything — forward pass, backpropagation, Adam — is implemented here
// on the standard library.
package bnn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fp"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// Config controls ensemble training.
type Config struct {
	// Lo, Hi are the design-space bounds used for input normalization
	// (required).
	Lo, Hi []float64
	// Hidden is the width of each hidden layer (default 32).
	Hidden int
	// HiddenLayers is the number of hidden layers (default 2).
	HiddenLayers int
	// Members is the ensemble size (default 5).
	Members int
	// Epochs is the number of full passes per member (default 150).
	Epochs int
	// LR is the Adam learning rate (default 0.01).
	LR float64
	// WeightDecay is the L2 regularization factor (default 1e-4).
	WeightDecay float64
	// Batch is the minibatch size (default 32).
	Batch int
	// Bootstrap resamples the training set per member (default true via
	// NoBootstrap = false).
	NoBootstrap bool
	// Seed makes training deterministic.
	Seed uint64
}

func (c *Config) validate() error {
	if len(c.Lo) == 0 || len(c.Lo) != len(c.Hi) {
		return fmt.Errorf("bnn: invalid bounds (%d, %d)", len(c.Lo), len(c.Hi))
	}
	for i := range c.Lo {
		if !(c.Lo[i] < c.Hi[i]) {
			return fmt.Errorf("bnn: bounds[%d] = [%v, %v]", i, c.Lo[i], c.Hi[i])
		}
	}
	return nil
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.Hidden <= 0 {
		d.Hidden = 32
	}
	if d.HiddenLayers <= 0 {
		d.HiddenLayers = 2
	}
	if d.Members <= 0 {
		d.Members = 5
	}
	if d.Epochs <= 0 {
		d.Epochs = 150
	}
	if d.LR <= 0 {
		d.LR = 0.01
	}
	if d.WeightDecay < 0 {
		d.WeightDecay = 0
	} else if fp.Zero(d.WeightDecay) {
		d.WeightDecay = 1e-4
	}
	if d.Batch <= 0 {
		d.Batch = 32
	}
	return d
}

// layer is a dense layer with tanh activation (linear for the output).
type layer struct {
	in, out int
	w       []float64 // out×in, row-major
	b       []float64
	// Adam state.
	mw, vw, mb, vb []float64
}

func newLayer(in, out int, stream *rng.Stream) *layer {
	l := &layer{
		in: in, out: out,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		mw: make([]float64, in*out),
		vw: make([]float64, in*out),
		mb: make([]float64, out),
		vb: make([]float64, out),
	}
	// Xavier/Glorot initialization.
	scale := math.Sqrt(2.0 / float64(in+out))
	for i := range l.w {
		l.w[i] = scale * stream.Norm()
	}
	return l
}

// mlp is one ensemble member.
type mlp struct {
	layers []*layer
	step   int // Adam timestep
}

func newMLP(dims []int, stream *rng.Stream) *mlp {
	m := &mlp{}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, newLayer(dims[i], dims[i+1], stream))
	}
	return m
}

// forward runs the network, keeping activations for backprop when acts is
// non-nil. acts[0] is the input; acts[k+1] the output of layer k
// (post-activation).
func (m *mlp) forward(x []float64, acts [][]float64) float64 {
	cur := x
	last := len(m.layers) - 1
	for k, l := range m.layers {
		next := make([]float64, l.out)
		for o := 0; o < l.out; o++ {
			s := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range cur {
				s += row[i] * v
			}
			if k != last {
				s = math.Tanh(s)
			}
			next[o] = s
		}
		if acts != nil {
			acts[k+1] = next
		}
		cur = next
	}
	return cur[0]
}

// trainStep runs backprop + Adam on one minibatch and returns the batch
// MSE loss.
func (m *mlp) trainStep(xs [][]float64, ys []float64, lr, decay float64) float64 {
	nl := len(m.layers)
	// Accumulated gradients.
	gw := make([][]float64, nl)
	gb := make([][]float64, nl)
	for k, l := range m.layers {
		gw[k] = make([]float64, len(l.w))
		gb[k] = make([]float64, len(l.b))
	}
	acts := make([][]float64, nl+1)
	var loss float64
	for idx, x := range xs {
		acts[0] = x
		pred := m.forward(x, acts)
		errv := pred - ys[idx]
		loss += errv * errv
		// Backward.
		delta := []float64{2 * errv / float64(len(xs))}
		for k := nl - 1; k >= 0; k-- {
			l := m.layers[k]
			in := acts[k]
			// Gradients for this layer.
			for o := 0; o < l.out; o++ {
				d := delta[o]
				gb[k][o] += d
				row := gw[k][o*l.in : (o+1)*l.in]
				for i, v := range in {
					row[i] += d * v
				}
			}
			if k == 0 {
				break
			}
			// Propagate delta through the weights and the tanh of the
			// previous layer.
			prev := make([]float64, l.in)
			for i := 0; i < l.in; i++ {
				var s float64
				for o := 0; o < l.out; o++ {
					s += delta[o] * l.w[o*l.in+i]
				}
				a := acts[k][i] // tanh output of layer k-1
				prev[i] = s * (1 - a*a)
			}
			delta = prev
		}
	}
	// Adam update.
	m.step++
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(m.step))
	bc2 := 1 - math.Pow(beta2, float64(m.step))
	for k, l := range m.layers {
		for i := range l.w {
			g := gw[k][i] + decay*l.w[i]
			l.mw[i] = beta1*l.mw[i] + (1-beta1)*g
			l.vw[i] = beta2*l.vw[i] + (1-beta2)*g*g
			l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + eps)
		}
		for i := range l.b {
			g := gb[k][i]
			l.mb[i] = beta1*l.mb[i] + (1-beta1)*g
			l.vb[i] = beta2*l.vb[i] + (1-beta2)*g*g
			l.b[i] -= lr * (l.mb[i] / bc1) / (math.Sqrt(l.vb[i]/bc2) + eps)
		}
	}
	return loss / float64(len(xs))
}

// Ensemble is a trained deep-ensemble surrogate.
type Ensemble struct {
	cfg         Config
	nets        []*mlp
	ymean, ystd float64

	xs [][]float64 // raw training inputs (cloned)
	ys []float64   // raw training outputs
}

// ErrEmptyData is returned when fitting with no observations.
var ErrEmptyData = errors.New("bnn: no training data")

// Fit trains the ensemble on raw-space observations.
func Fit(xs [][]float64, ys []float64, cfg Config) (*Ensemble, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, ErrEmptyData
	}
	d := len(c.Lo)

	e := &Ensemble{cfg: c}
	e.ymean, e.ystd = meanStd(ys)
	if e.ystd < 1e-12 {
		e.ystd = 1
	}
	// Normalize once.
	nx := make([][]float64, n)
	ny := make([]float64, n)
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("bnn: point %d has dim %d, want %d", i, len(x), d)
		}
		u := make([]float64, d)
		for j := range x {
			u[j] = 2*(x[j]-c.Lo[j])/(c.Hi[j]-c.Lo[j]) - 1
		}
		nx[i] = u
		ny[i] = (ys[i] - e.ymean) / e.ystd
	}

	dims := []int{d}
	for i := 0; i < c.HiddenLayers; i++ {
		dims = append(dims, c.Hidden)
	}
	dims = append(dims, 1)

	master := rng.New(c.Seed, 8080)
	for member := 0; member < c.Members; member++ {
		stream := master.Split(uint64(member))
		net := newMLP(dims, stream)
		// Bootstrap resample (or identity).
		idx := make([]int, n)
		for i := range idx {
			if c.NoBootstrap {
				idx[i] = i
			} else {
				idx[i] = stream.IntN(n)
			}
		}
		for epoch := 0; epoch < c.Epochs; epoch++ {
			stream.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for off := 0; off < n; off += c.Batch {
				end := off + c.Batch
				if end > n {
					end = n
				}
				bx := make([][]float64, 0, end-off)
				by := make([]float64, 0, end-off)
				for _, t := range idx[off:end] {
					bx = append(bx, nx[t])
					by = append(by, ny[t])
				}
				net.trainStep(bx, by, c.LR, c.WeightDecay)
			}
		}
		e.nets = append(e.nets, net)
	}
	// Retain the raw data: BestObserved needs it, and Info reports the
	// training fit.
	e.xs = make([][]float64, n)
	for i, x := range xs {
		e.xs[i] = mat.CloneVec(x)
	}
	e.ys = mat.CloneVec(ys)
	return e, nil
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

// forwardGrad runs the network and backpropagates d(output)/d(input),
// reusing the trainStep delta recursion but stopping at the raw input
// (which has no activation).
func (m *mlp) forwardGrad(x []float64) (float64, []float64) {
	nl := len(m.layers)
	acts := make([][]float64, nl+1)
	acts[0] = x
	out := m.forward(x, acts)
	delta := []float64{1}
	for k := nl - 1; k >= 1; k-- {
		l := m.layers[k]
		prev := make([]float64, l.in)
		for i := 0; i < l.in; i++ {
			var s float64
			for o := 0; o < l.out; o++ {
				s += delta[o] * l.w[o*l.in+i]
			}
			a := acts[k][i] // tanh output of layer k-1
			prev[i] = s * (1 - a*a)
		}
		delta = prev
	}
	l0 := m.layers[0]
	g := make([]float64, l0.in)
	for i := 0; i < l0.in; i++ {
		var s float64
		for o := 0; o < l0.out; o++ {
			s += delta[o] * l0.w[o*l0.in+i]
		}
		g[i] = s
	}
	return out, g
}

// Predict returns the ensemble predictive mean and the member-disagreement
// standard deviation at a raw-space point.
func (e *Ensemble) Predict(x []float64) (mean, sd float64) {
	d := len(e.cfg.Lo)
	if len(x) != d {
		panic(fmt.Sprintf("bnn: point dim %d != %d", len(x), d))
	}
	u := make([]float64, d)
	for j := range x {
		u[j] = 2*(x[j]-e.cfg.Lo[j])/(e.cfg.Hi[j]-e.cfg.Lo[j]) - 1
	}
	var sum, sumsq float64
	for _, net := range e.nets {
		p := net.forward(u, nil)
		sum += p
		sumsq += p * p
	}
	k := float64(len(e.nets))
	mu := sum / k
	variance := sumsq/k - mu*mu
	if variance < 0 {
		variance = 0
	}
	return e.ymean + e.ystd*mu, e.ystd * math.Sqrt(variance)
}

// normalizeInput maps a raw-space point to [-1,1]^d, the network's input
// convention.
func (e *Ensemble) normalizeInput(x []float64) []float64 {
	d := len(e.cfg.Lo)
	if len(x) != d {
		panic(fmt.Sprintf("bnn: point dim %d != %d", len(x), d))
	}
	u := make([]float64, d)
	for j := range x {
		u[j] = 2*(x[j]-e.cfg.Lo[j])/(e.cfg.Hi[j]-e.cfg.Lo[j]) - 1
	}
	return u
}

// PredictWithGrad returns the ensemble mean and disagreement sd at a
// raw-space point, writing their analytic input gradients into the
// caller-provided dMean and dSD (tanh networks are smooth, so
// backpropagation to the input is exact).
func (e *Ensemble) PredictWithGrad(x []float64, dMean, dSD []float64) (mean, sd float64) {
	d := len(e.cfg.Lo)
	if len(dMean) != d || len(dSD) != d {
		panic(fmt.Sprintf("bnn: gradient buffer lengths %d,%d != %d", len(dMean), len(dSD), d))
	}
	u := e.normalizeInput(x)
	k := float64(len(e.nets))
	var sum, sumsq float64
	dMuU := make([]float64, d)
	dSqU := make([]float64, d) // gradient of avg p², accumulated
	for _, net := range e.nets {
		p, g := net.forwardGrad(u)
		sum += p
		sumsq += p * p
		for j := 0; j < d; j++ {
			dMuU[j] += g[j] / k
			dSqU[j] += 2 * p * g[j] / k
		}
	}
	mu := sum / k
	variance := sumsq/k - mu*mu
	if variance < 1e-300 {
		variance = 1e-300
	}
	sdStd := math.Sqrt(variance)
	for j := 0; j < d; j++ {
		du := 2 / (e.cfg.Hi[j] - e.cfg.Lo[j]) // chain rule u→x
		dVarU := dSqU[j] - 2*mu*dMuU[j]
		dMean[j] = e.ystd * dMuU[j] * du
		dSD[j] = e.ystd * dVarU / (2 * sdStd) * du
	}
	return e.ymean + e.ystd*mu, e.ystd * sdStd
}

// PredictJoint returns the joint posterior over a batch of points, with
// the covariance estimated empirically across ensemble members (the same
// population normalization 1/M that Predict's variance uses). The
// covariance has rank at most M−1, so the factorization relies on the
// jittered Cholesky to shore up the null space.
func (e *Ensemble) PredictJoint(xs [][]float64) (*surrogate.JointPrediction, error) {
	q := len(xs)
	if q == 0 {
		return nil, fmt.Errorf("bnn: PredictJoint: %w", surrogate.ErrEmptyBatch)
	}
	nm := len(e.nets)
	preds := mat.NewDense(nm, q, nil)
	for i, x := range xs {
		u := e.normalizeInput(x)
		for m, net := range e.nets {
			preds.Set(m, i, net.forward(u, nil))
		}
	}
	k := float64(nm)
	mu := make([]float64, q)
	for i := 0; i < q; i++ {
		var s float64
		for m := 0; m < nm; m++ {
			s += preds.At(m, i)
		}
		mu[i] = s / k
	}
	mean := make([]float64, q)
	cov := mat.NewDense(q, q, nil)
	scale := e.ystd * e.ystd
	for i := 0; i < q; i++ {
		mean[i] = e.ymean + e.ystd*mu[i]
		for j := 0; j <= i; j++ {
			var s float64
			for m := 0; m < nm; m++ {
				s += (preds.At(m, i) - mu[i]) * (preds.At(m, j) - mu[j])
			}
			c := scale * s / k
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	ch, err := mat.NewCholesky(cov, 1e-10, 1e-2)
	if err != nil {
		return nil, fmt.Errorf("bnn: joint covariance not PD: %w", err)
	}
	// L materializes a fresh matrix on the packed factor — no Clone needed.
	return &surrogate.JointPrediction{Mean: mean, CovChol: ch.L()}, nil
}

// Fantasize implements surrogate.Surrogate. A deep ensemble has no
// tractable conditioning update short of retraining, so the operation is
// unsupported; Kriging-Believer-style callers keep selecting on the
// unconditioned model.
func (e *Ensemble) Fantasize([]float64, float64) (surrogate.Surrogate, error) {
	return nil, fmt.Errorf("bnn: fantasy conditioning requires retraining: %w", surrogate.ErrUnsupported)
}

// BestObserved returns the index, point and value of the best training
// observation under the given optimization sense.
func (e *Ensemble) BestObserved(minimize bool) (idx int, x []float64, y float64) {
	idx = 0
	y = e.ys[0]
	for i, v := range e.ys {
		if (minimize && v < y) || (!minimize && v > y) {
			idx, y = i, v
		}
	}
	return idx, mat.CloneVec(e.xs[idx]), y
}

// Info implements surrogate.Surrogate. Score is the negative training MSE
// of the ensemble mean in raw output units.
func (e *Ensemble) Info() surrogate.Info {
	var mse float64
	for i, x := range e.xs {
		mu, _ := e.Predict(x)
		d := mu - e.ys[i]
		mse += d * d
	}
	mse /= float64(len(e.ys))
	return surrogate.Info{
		Family: "DeepEnsemble",
		N:      len(e.ys),
		Dim:    len(e.cfg.Lo),
		Score:  -mse,
	}
}

// The ensemble is a full surrogate.
var _ surrogate.Surrogate = (*Ensemble)(nil)
