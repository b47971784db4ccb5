package acq

import (
	"math"
	"testing"
)

func TestScaledEINonNegativeFinite(t *testing.T) {
	g := fit1D(t, 0.05, 0.25, 0.45, 0.65, 0.85)
	e := &ScaledEI{Best: bestMin(g), Minimize: true}
	for i := 0; i <= 40; i++ {
		v := e.Eval(g, []float64{float64(i) / 40})
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("ScaledEI = %v at %v", v, float64(i)/40)
		}
	}
}

func TestScaledEIGradConsistent(t *testing.T) {
	g := fit1D(t, 0.1, 0.35, 0.6, 0.85)
	e := &ScaledEI{Best: 0.2, Minimize: true}
	grad := make([]float64, 1)
	x := []float64{0.48}
	v := e.EvalWithGrad(g, x, grad)
	if math.Abs(v-e.Eval(g, x)) > 1e-12 {
		t.Fatal("value mismatch")
	}
	const h = 1e-5
	num := (e.Eval(g, []float64{0.48 + h}) - e.Eval(g, []float64{0.48 - h})) / (2 * h)
	if math.Abs(num-grad[0]) > 1e-3*(1+math.Abs(num)) {
		t.Fatalf("grad = %v, fd %v", grad[0], num)
	}
}

func TestScaledEITemperedVsEI(t *testing.T) {
	// Far from data (huge sd, tiny mean improvement) ScaledEI approaches a
	// constant while EI grows with sd — ScaledEI must not blow up.
	g := fit1D(t, 0.45, 0.5, 0.55)
	e := &ScaledEI{Best: bestMin(g), Minimize: true}
	far := e.Eval(g, []float64{0.02})
	near := e.Eval(g, []float64{0.5})
	if math.IsInf(far, 0) || far < 0 {
		t.Fatalf("far value %v", far)
	}
	_ = near
}
