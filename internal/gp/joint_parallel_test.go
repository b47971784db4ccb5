package gp

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestPredictJointParallelBitIdentity forces PredictJoint down its
// parallel-over-q branch (by dropping the parallelJointN threshold onto a
// small fixture) and checks it reproduces the serial branch byte for
// byte, at GOMAXPROCS 1 and 8. The branches share the same per-column
// operations — k★ fill, dot against alpha, forward solve — with disjoint
// destination rows, so the joint mean and covariance factor must match
// exactly.
func TestPredictJointParallelBitIdentity(t *testing.T) {
	X, y, cfg := benchData(48)
	g, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	stream := rng.New(7, 5)
	lo := make([]float64, g.d)
	hi := make([]float64, g.d)
	for i := range hi {
		hi[i] = 1
	}
	const q = 5
	xs := make([][]float64, q)
	for i := range xs {
		xs[i] = stream.UniformVec(lo, hi)
	}

	want, err := g.PredictJoint(xs)
	if err != nil {
		t.Fatalf("PredictJoint (serial): %v", err)
	}

	old := parallelJointN
	parallelJointN = 1
	defer func() { parallelJointN = old }()
	for _, procs := range []int{1, 8} {
		oldProcs := runtime.GOMAXPROCS(procs)
		got, err := g.PredictJoint(xs)
		runtime.GOMAXPROCS(oldProcs)
		if err != nil {
			t.Fatalf("PredictJoint (parallel, procs=%d): %v", procs, err)
		}
		for i := range want.Mean {
			if math.Float64bits(got.Mean[i]) != math.Float64bits(want.Mean[i]) {
				t.Fatalf("procs=%d: Mean[%d] = %v, want %v", procs, i, got.Mean[i], want.Mean[i])
			}
		}
		gd, wd := got.CovChol.Data(), want.CovChol.Data()
		for i := range wd {
			if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
				t.Fatalf("procs=%d: CovChol[%d] = %v, want %v", procs, i, gd[i], wd[i])
			}
		}
	}
}
