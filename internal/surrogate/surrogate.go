// Package surrogate defines the model abstraction of the BO stack: the
// posterior queries batch acquisition needs (marginal and joint prediction,
// gradients, fantasy conditioning) decoupled from any concrete model
// family. The paper's engine fits an exact GP every cycle, but two of the
// implemented acquisition processes bring their own surrogate — BNN-GA
// trains a deep ensemble, TS-RFF a random-Fourier-feature model — and the
// paper's §4 explicitly recommends "fast-to-fit surrogates" as a remedy for
// the O(n³) time-budget wall. This interface is what lets the engine treat
// all of them uniformly and attribute their training time to the model-fit
// column rather than the acquisition column (time attribution is part of
// the paper's result, not bookkeeping trivia).
//
// Three implementations exist: gp.GP (exact GP, the default), gp.RFF
// (weight-space Bayesian linear regression over random Fourier features)
// and bnn.Ensemble (deep ensemble). The package is a leaf: it imports only
// internal/mat, and the model packages import it.
package surrogate

import (
	"errors"

	"repro/internal/mat"
)

// Surrogate is a fitted probabilistic regression model over a box-bounded
// design space, queried in raw (unnormalized) coordinates. Implementations
// are immutable after fitting: Fantasize returns a derived model and all
// methods are safe for concurrent readers.
type Surrogate interface {
	// Predict returns the posterior mean and standard deviation of the
	// latent function at x.
	Predict(x []float64) (mean, sd float64)
	// PredictWithGrad additionally writes the gradients of the mean and
	// standard deviation with respect to x into the caller-provided
	// dMean and dSD (both of length Dim), for gradient-based acquisition
	// optimization. The destination-passing signature keeps the
	// acquisition inner loop allocation-free: callers own and recycle the
	// gradient buffers (see DESIGN.md §9).
	PredictWithGrad(x []float64, dMean, dSD []float64) (mean, sd float64)
	// PredictJoint returns the joint posterior over a batch of points,
	// as needed by the Monte-Carlo multi-point criterion q-EI. An empty
	// batch returns an error wrapping ErrEmptyBatch.
	PredictJoint(xs [][]float64) (*JointPrediction, error)
	// Fantasize conditions on a hypothetical observation (x, y) without
	// re-estimating hyperparameters — the Kriging-Believer partial update.
	// Models without a tractable conditioning update return a
	// ErrUnsupported-wrapped error; callers treat that as "keep using the
	// current model".
	Fantasize(x []float64, y float64) (Surrogate, error)
	// BestObserved returns the index, location and value of the best
	// training observation under the given optimization sense.
	BestObserved(minimize bool) (idx int, x []float64, y float64)
	// Info reports fit metadata for time-accounting and diagnostics.
	Info() Info
}

// Info is fit metadata shared by all surrogate families. It feeds cycle
// diagnostics and lets observers report what was fitted without
// type-switching on the concrete model.
type Info struct {
	// Family names the model family: "GP", "RFF" or "DeepEnsemble".
	Family string
	// N is the number of training observations.
	N int
	// Dim is the input dimension.
	Dim int
	// Score is the family's fit criterion: log marginal likelihood for the
	// exact GP and RFF, negative training MSE for the ensemble. Only
	// comparable within a family.
	Score float64
	// Hyperparameters is the packed hyperparameter vector in the family's
	// own parameterization (may be nil when the family has none worth
	// reporting).
	Hyperparameters []float64
}

// JointPrediction is the posterior over a batch of q points: the mean
// vector and the lower Cholesky factor of the covariance, both in raw
// output units. Monte-Carlo criteria sample y = Mean + CovChol·z with
// z ~ N(0, I).
type JointPrediction struct {
	Mean    []float64
	CovChol *mat.Dense
}

// ErrUnsupported reports a posterior operation the model family cannot
// provide (e.g. fantasy conditioning of a deep ensemble). Test with
// errors.Is.
var ErrUnsupported = errors.New("surrogate: operation not supported by model family")

// ErrEmptyBatch reports a joint prediction requested over zero points.
// All model families wrap it from PredictJoint rather than panicking, so
// batch-construction bugs surface as ordinary errors. Test with errors.Is.
var ErrEmptyBatch = errors.New("surrogate: empty prediction batch")
