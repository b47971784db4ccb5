package acq

import (
	"math"
	"testing"

	"repro/internal/surrogate"
	"repro/internal/testutil"
)

// linPoF is a smooth analytic feasibility model: PoF(x) = 1/(1+Σxᵢ²),
// with exact gradient, so product-rule gradients can be checked against
// finite differences without a second GP.
type linPoF struct{}

func (linPoF) PoF(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return 1 / (1 + s)
}

func (p linPoF) PoFWithGrad(x, grad []float64) float64 {
	v := p.PoF(x)
	for j := range grad {
		grad[j] = -2 * x[j] * v * v
	}
	return v
}

// provider decorates a plain surrogate with a feasibility model, the
// same capability shape the scenario engine's constrained surrogate has.
type provider struct {
	surrogate.Surrogate
	m FeasibilityModel
}

func (p *provider) Feasibility() FeasibilityModel { return p.m }

func TestWeightedPassthroughForPlainSurrogate(t *testing.T) {
	g := fit1D(t, 0, 0.3, 0.7, 1)
	base := &EI{Best: bestMin(g), Minimize: true}
	if got := Weighted(base, g); got != Acquisition(base) {
		t.Fatal("plain surrogate must pass the base criterion through unchanged")
	}
	// A provider with a nil model also disables weighting.
	if got := Weighted(base, &provider{Surrogate: g}); got != Acquisition(base) {
		t.Fatal("nil feasibility model must pass the base criterion through")
	}
}

func TestWeightedMultipliesByPoF(t *testing.T) {
	g := fit1D(t, 0, 0.3, 0.7, 1)
	base := &EI{Best: bestMin(g), Minimize: true}
	p := &provider{Surrogate: g, m: linPoF{}}
	w := Weighted(base, p)
	if w == Acquisition(base) {
		t.Fatal("constrained surrogate must produce a weighted criterion")
	}
	x := []float64{0.42}
	want := base.Eval(g, x) * linPoF{}.PoF(x)
	if got := w.Eval(g, x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted Eval = %v, want base·PoF = %v", got, want)
	}
	if w.Name() != base.Name()+"+PoF" {
		t.Fatalf("weighted name = %q", w.Name())
	}
}

func TestFeasibilityWeightedGradFiniteDiff(t *testing.T) {
	g := fit1D(t, 0, 0.3, 0.7, 1)
	w := &FeasibilityWeighted{
		Base:  &EI{Best: bestMin(g), Minimize: true},
		Model: linPoF{},
	}
	grad := make([]float64, 1)
	for _, xv := range []float64{0.15, 0.42, 0.86} {
		x := []float64{xv}
		v := w.EvalWithGrad(g, x, grad)
		const h = 1e-6
		fp := w.Eval(g, []float64{xv + h})
		fm := w.Eval(g, []float64{xv - h})
		num := (fp - fm) / (2 * h)
		if math.Abs(v-w.Eval(g, x)) > 1e-12 {
			t.Fatalf("EvalWithGrad value diverges from Eval at %v", xv)
		}
		if math.Abs(grad[0]-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("at %v: analytic grad %v, numeric %v", xv, grad[0], num)
		}
	}
}

func TestPoFProduct(t *testing.T) {
	g := fit1D(t, 0, 0.3, 0.7, 1)
	flat := []float64{0.2, 0.5, 0.9}
	if got := PoFProduct(g, flat, 3, 1); got != 1 {
		t.Fatalf("plain surrogate PoFProduct = %v, want 1", got)
	}
	p := &provider{Surrogate: g, m: linPoF{}}
	want := 1.0
	for _, v := range flat {
		want *= linPoF{}.PoF([]float64{v})
	}
	if got := PoFProduct(p, flat, 3, 1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("PoFProduct = %v, want %v", got, want)
	}
}

// TestFeasibilityWeightedAllocs pins the weighted criterion's gradient at
// zero steady-state allocations: it runs in the innermost loop of every
// L-BFGS-B restart, and both its own scratch and the base criterion's
// come from pools.
func TestFeasibilityWeightedAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := fit1D(t, 0, 0.3, 0.7, 1)
	w := &FeasibilityWeighted{Base: &EI{Best: bestMin(g), Minimize: true}, Model: linPoF{}}
	x := []float64{0.42}
	grad := make([]float64, 1)
	w.EvalWithGrad(g, x, grad) // warm the pools
	if got := testing.AllocsPerRun(200, func() {
		w.EvalWithGrad(g, x, grad)
	}); got > 0 {
		t.Fatalf("FeasibilityWeighted.EvalWithGrad allocates %v times per call, want 0", got)
	}
}
