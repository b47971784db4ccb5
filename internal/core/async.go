package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/surrogate"
)

// This file is the asynchronous half of the ask/tell engine (Engine.Mode =
// Asynchronous). The synchronous protocol proposes q points per cycle and
// barriers on the full batch; here every cycle proposes exactly one point,
// up to BatchSize points are in flight at once, and a replacement Ask
// becomes available the moment any Tell lands — the aphBO-2GP-3B schedule.
// Points that are still busy when a new proposal is made are treated as
// Kriging-Believer fantasy observations (Ginsbourger et al.); model
// families without a conditioning update (the deep ensemble) fall back to
// a local-penalty surrogate in the spirit of González et al.'s local
// penalization, tracked by FantasyFallbacks.

// askAsync is the cycle phase of Ask in asynchronous mode. Guard order,
// transactional rollback and fit accounting mirror the
// synchronous path exactly; the differences are the in-flight slot cap,
// the busy-point conditioning before acquisition, and q = 1.
func (at *AskTell) askAsync(ctx context.Context) (*Batch, error) {
	if at.inFlightPoints() >= at.cfg.BatchSize {
		return nil, ErrNoBatchReady
	}
	if at.clock.Elapsed() >= at.cfg.Budget {
		return nil, ErrDone
	}
	if at.cfg.MaxCycles > 0 && at.cycle >= at.cfg.MaxCycles {
		return nil, ErrDone
	}
	if err := ctx.Err(); err != nil {
		return nil, interrupted("between cycles", err)
	}
	var rb *cycleRollback
	if ctx.Done() != nil {
		var err error
		if rb, err = at.captureCycle(); err != nil {
			return nil, err
		}
	}
	at.cycle++
	cycle := at.cycle
	at.st.Cycle = cycle

	fitVirtual, err := at.fitModel(ctx, cycle)
	if err != nil {
		if ctx.Err() != nil {
			if rerr := at.rollbackCycle(rb); rerr != nil {
				return nil, rerr
			}
			return nil, interrupted("model fit", ctx.Err())
		}
		at.failed = fmt.Errorf("core: cycle %d fit: %w", cycle, err)
		return nil, at.failed
	}

	busy := at.busyPoints()
	points, acqVirtual, fallback, reason, err := at.acquire(ctx, cycle, at.conditionOnBusy(busy), 1, busy)
	if err != nil {
		if rerr := at.rollbackCycle(rb); rerr != nil {
			return nil, rerr
		}
		return nil, interrupted("acquisition", err)
	}
	b := at.addPending(cycle, points, fitVirtual, acqVirtual, fallback, reason)
	// The point's evaluation clock starts now — after the fit and the
	// acquisition have been charged — so its Tell completes it at
	// start + latency regardless of what other points do in between.
	at.pending[b.ID].start = at.clock.Elapsed()
	return b, nil
}

// inFlightPoints counts asked-but-untold points across the pending ledger.
func (at *AskTell) inFlightPoints() int {
	n := 0
	for _, id := range at.order {
		n += len(at.pending[id].batch.Points)
	}
	return n
}

// busyPoints flattens the pending ledger's points in ask order — the
// deterministic conditioning order for fantasy chains and the penalty
// surrogate.
func (at *AskTell) busyPoints() [][]float64 {
	if len(at.order) == 0 {
		return nil
	}
	out := make([][]float64, 0, len(at.order))
	for _, id := range at.order {
		out = append(out, at.pending[id].batch.Points...)
	}
	return out
}

// conditionOnBusy returns the acquisition model for a replacement
// proposal: the current surrogate conditioned on every busy point via a
// Kriging-Believer fantasy chain (each busy point believed at its own
// posterior mean, in ask order). If any link cannot fantasize —
// surrogate.ErrUnsupported from the deep ensemble, or a degenerate
// extension — the whole chain is abandoned for a local-penalty wrapper
// over the unconditioned model, which deflates the posterior standard
// deviation near busy points so acquisition maximizers are pushed away
// from them. The fallback is counted in FantasyFallbacks.
func (at *AskTell) conditionOnBusy(busy [][]float64) surrogate.Surrogate {
	if len(busy) == 0 {
		return at.model
	}
	cur := at.model
	for _, x := range busy {
		mu, _ := cur.Predict(x)
		fm, err := cur.Fantasize(x, mu)
		if err != nil {
			at.fantasyFallbacks++
			return newPenaltySurrogate(at.model, busy, at.cfg.Problem.Lo, at.cfg.Problem.Hi)
		}
		cur = fm
	}
	return cur
}

// FantasyFallbacks reports how many asynchronous proposals fell back to
// the local-penalty surrogate because busy points could not be fantasized.
// Zero for synchronous runs and for model families with a conditioning
// update (the exact GP and RFF).
func (at *AskTell) FantasyFallbacks() int { return at.fantasyFallbacks }

// Mode reports the engine's protocol mode.
func (at *AskTell) Mode() Mode { return at.cfg.Mode }

// penaltyRadius is the length scale of the busy-point penalty in
// box-normalized coordinates: a busy point suppresses the posterior
// standard deviation within roughly a tenth of the design box around
// itself, far enough to break acquisition re-selection without blinding
// the maximizer to genuinely distinct optima.
const penaltyRadius = 0.1

// penaltySurrogate wraps a base surrogate with a multiplicative busy-point
// penalty on the posterior standard deviation:
//
//	sd'(x) = sd(x) · Π_b (1 − exp(−d_b(x)² / 2ρ²))
//
// with d_b the box-normalized distance to busy point b and ρ =
// penaltyRadius. The mean is untouched. Every improvement-style
// acquisition (EI, PI, UCB, their MC batch variants) is monotone in sd, so
// driving sd to zero at busy points makes re-proposing them worthless —
// the local-penalization idea of González et al. applied in posterior
// space, where it needs no Lipschitz estimate and composes with any
// surrogate family.
type penaltySurrogate struct {
	base   surrogate.Surrogate
	busy   [][]float64
	lo, hi []float64
}

func newPenaltySurrogate(base surrogate.Surrogate, busy [][]float64, lo, hi []float64) *penaltySurrogate {
	return &penaltySurrogate{base: base, busy: cloneMatrix(busy), lo: lo, hi: hi}
}

// psi evaluates the penalty factor Π_b (1 − exp(−d_b²/2ρ²)) at x.
func (s *penaltySurrogate) psi(x []float64) float64 {
	p := 1.0
	for _, xb := range s.busy {
		p *= 1 - math.Exp(-s.normSq(x, xb)/(2*penaltyRadius*penaltyRadius))
	}
	return p
}

// normSq is the squared box-normalized distance between x and xb.
func (s *penaltySurrogate) normSq(x, xb []float64) float64 {
	var d2 float64
	for j := range x {
		w := (x[j] - xb[j]) / (s.hi[j] - s.lo[j])
		d2 += w * w
	}
	return d2
}

// Predict implements surrogate.Surrogate.
func (s *penaltySurrogate) Predict(x []float64) (float64, float64) {
	mu, sd := s.base.Predict(x)
	return mu, sd * s.psi(x)
}

// PredictWithGrad implements surrogate.Surrogate. The penalized standard
// deviation is sd·ψ with ψ a product of smooth per-busy-point factors, so
// its gradient follows the product rule: dSD'_j = dSD_j·ψ + sd·∂ψ/∂x_j,
// with ∂ψ/∂x_j assembled from prefix/suffix products so no factor is
// divided out (factors vanish at the busy points themselves). The mean and
// its gradient pass through unchanged.
func (s *penaltySurrogate) PredictWithGrad(x []float64, dMean, dSD []float64) (float64, float64) {
	mu, sd := s.base.PredictWithGrad(x, dMean, dSD)
	n := len(s.busy)
	rho2 := penaltyRadius * penaltyRadius
	exps := make([]float64, n)  // exp(−d_b²/2ρ²)
	terms := make([]float64, n) // 1 − exps[b]
	for b, xb := range s.busy {
		exps[b] = math.Exp(-s.normSq(x, xb) / (2 * rho2))
		terms[b] = 1 - exps[b]
	}
	// others[b] = Π_{b'≠b} terms[b'] via prefix/suffix products.
	suffix := make([]float64, n+1)
	suffix[n] = 1
	for b := n - 1; b >= 0; b-- {
		suffix[b] = suffix[b+1] * terms[b]
	}
	psi := suffix[0]
	others := make([]float64, n)
	prefix := 1.0
	for b := 0; b < n; b++ {
		others[b] = prefix * suffix[b+1]
		prefix *= terms[b]
	}
	for j := range dSD {
		dSD[j] *= psi
	}
	for b, xb := range s.busy {
		for j := range x {
			span := s.hi[j] - s.lo[j]
			// ∂terms[b]/∂x_j = exps[b] · (x_j − xb_j) / (span_j² ρ²)
			dSD[j] += sd * others[b] * exps[b] * (x[j] - xb[j]) / (span * span * rho2)
		}
	}
	return mu, sd * psi
}

// PredictJoint implements surrogate.Surrogate: the base joint posterior
// with row i of the covariance Cholesky factor scaled by ψ(x_i), i.e. the
// covariance conjugated by the diagonal penalty matrix — still a valid
// lower-triangular factor of a positive semi-definite matrix.
func (s *penaltySurrogate) PredictJoint(xs [][]float64) (*surrogate.JointPrediction, error) {
	jp, err := s.base.PredictJoint(xs)
	if err != nil {
		return nil, err
	}
	_, cols := jp.CovChol.Dims()
	for i, x := range xs {
		p := s.psi(x)
		for j := 0; j < cols; j++ {
			jp.CovChol.Set(i, j, jp.CovChol.At(i, j)*p)
		}
	}
	return jp, nil
}

// Fantasize implements surrogate.Surrogate. The wrapper exists precisely
// because the base cannot fantasize; extending the chain through the
// penalty has no defined posterior, so it is unsupported too.
func (s *penaltySurrogate) Fantasize([]float64, float64) (surrogate.Surrogate, error) {
	return nil, fmt.Errorf("core: penalty surrogate has no conditioning update: %w", surrogate.ErrUnsupported)
}

// BestObserved implements surrogate.Surrogate by delegation.
func (s *penaltySurrogate) BestObserved(minimize bool) (int, []float64, float64) {
	return s.base.BestObserved(minimize)
}

// Info implements surrogate.Surrogate by delegation.
func (s *penaltySurrogate) Info() surrogate.Info { return s.base.Info() }

var _ surrogate.Surrogate = (*penaltySurrogate)(nil)
