// Package rng provides the deterministic randomness infrastructure of the
// library: seed-splittable PRNG streams, Gaussian and multivariate-normal
// sampling, Sobol' low-discrepancy sequences and Latin Hypercube designs.
//
// Every stochastic component of the BO stack draws from a Stream derived
// from a master seed, so whole experiments replay bit-identically.
package rng

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Stream is a deterministic pseudo-random stream. It wraps a PCG generator
// seeded from a (seed, stream) pair so that independent components of an
// experiment can be given statistically independent streams.
type Stream struct {
	r *rand.Rand
	// pcg is the underlying source, retained so the stream state can be
	// exported and restored (State/Restore). rand.Rand in math/rand/v2
	// buffers nothing — the PCG state is the entire stream state.
	pcg *rand.PCG
}

// New returns a stream for the given master seed and stream index.
func New(seed, stream uint64) *Stream {
	// splitmix64-style diffusion so that nearby (seed, stream) pairs do not
	// produce correlated PCG states.
	s0 := mix(seed ^ 0x9e3779b97f4a7c15)
	s1 := mix(stream ^ 0xbf58476d1ce4e5b9 ^ mix(seed))
	pcg := rand.NewPCG(s0, s1)
	return &Stream{r: rand.New(pcg), pcg: pcg}
}

// State exports the stream's exact generator state as an opaque byte
// blob. Restoring it (Restore, FromState) resumes the stream so that
// every subsequent draw is identical to what the original stream would
// have produced — the primitive that makes killed-and-resumed
// optimization runs replay byte-for-byte.
func (s *Stream) State() []byte {
	b, err := s.pcg.MarshalBinary()
	if err != nil {
		// rand.PCG documents no failure mode; a non-nil error means the
		// runtime broke its own contract.
		panic(fmt.Sprintf("rng: PCG state export failed: %v", err))
	}
	return b
}

// Restore overwrites the stream's generator state with one previously
// exported by State. The stream then replays exactly the draws the
// exporting stream would have made next.
func (s *Stream) Restore(state []byte) error {
	if err := s.pcg.UnmarshalBinary(state); err != nil {
		return fmt.Errorf("rng: restore stream state: %w", err)
	}
	return nil
}

// FromState builds a new stream positioned at a previously exported
// state.
func FromState(state []byte) (*Stream, error) {
	s := New(0, 0)
	if err := s.Restore(state); err != nil {
		return nil, err
	}
	return s, nil
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream identified by index i.
func (s *Stream) Split(i uint64) *Stream {
	return New(s.r.Uint64(), mix(i))
}

// Float64 returns a uniform sample in [0,1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.r.Uint64() }

// IntN returns a uniform integer in [0,n).
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Norm returns a standard normal sample.
func (s *Stream) Norm() float64 { return s.r.NormFloat64() }

// Uniform returns a uniform sample in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// UniformVec fills a length-d vector with uniform samples in the box
// [lo_i, hi_i).
func (s *Stream) UniformVec(lo, hi []float64) []float64 {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("rng: bounds length mismatch %d != %d", len(lo), len(hi)))
	}
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = s.Uniform(lo[i], hi[i])
	}
	return x
}

// NormVec returns a vector of n independent standard normal samples.
func (s *Stream) NormVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = s.r.NormFloat64()
	}
	return v
}

// Perm returns a random permutation of [0,n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle shuffles n elements using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// NormICDF returns the inverse CDF (quantile function) of the standard
// normal distribution, using the Acklam rational approximation refined by a
// single Halley step. Accuracy is ~1e-15 over (0,1).
func NormICDF(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// NormCDF returns the standard normal CDF.
func NormCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// NormPDF returns the standard normal density.
func NormPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}
