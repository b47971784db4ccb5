package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/rng"
	"repro/internal/strategy"
	"repro/internal/surrogate"
)

// fixture fits a small GP on a 3-d quadratic.
func fixture(t *testing.T) (*gp.GP, *core.State) {
	t.Helper()
	lo, hi := []float64{0, 0, 0}, []float64{1, 1, 1}
	prob := &core.Problem{Name: "quad", Lo: lo, Hi: hi, Minimize: true}
	st := &core.State{Problem: prob}
	xs := rng.ScaleToBounds(rng.LatinHypercube(12, 3, rng.New(7, 0)), lo, hi)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		for _, v := range x {
			ys[i] += (v - 0.3) * (v - 0.3)
		}
	}
	st.Observe(xs, ys)
	m, err := gp.Fit(xs, ys, gp.Config{Lo: lo, Hi: hi, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

// constFeasibility is a constraint model that calls everything half
// feasible.
type constFeasibility struct{}

func (constFeasibility) PoF([]float64) float64 { return 0.5 }

func (constFeasibility) PoFWithGrad(_, grad []float64) float64 {
	for i := range grad {
		grad[i] = 0
	}
	return 0.5
}

// constrained is a surrogate carrying a constraint model, like the
// scenario engine's two-GP composite; model == nil means "no constraint
// information this cycle".
type constrained struct {
	surrogate.Surrogate
	model acq.FeasibilityModel
}

func (c constrained) Feasibility() acq.FeasibilityModel { return c.model }

func TestSurrogateWrapperForwardsFeasibility(t *testing.T) {
	m, _ := fixture(t)
	tr := newTracer()

	if _, ok := wrapSurrogate(m, tr).(acq.FeasibilityProvider); ok {
		t.Error("a plain GP must not gain a feasibility capability through the wrapper")
	}

	w := wrapSurrogate(constrained{m, constFeasibility{}}, tr)
	fp, ok := w.(acq.FeasibilityProvider)
	if !ok {
		t.Fatal("the wrapper hides the FeasibilityProvider capability")
	}
	if _, ok := acq.Weighted(&acq.EI{}, w).(*acq.FeasibilityWeighted); !ok {
		t.Error("acq.Weighted no longer weights through the wrapper")
	}
	if p := fp.Feasibility().PoF([]float64{0.5, 0.5, 0.5}); p != 0.5 || tr.pofCalls.Load() != 1 {
		t.Errorf("PoF = %v after %d counted calls, want 0.5 after 1", p, tr.pofCalls.Load())
	}

	// A nil constraint model must stay a nil interface, or acq.Weighted
	// would weight by a model that is not there.
	nilModel := wrapSurrogate(constrained{m, nil}, tr).(acq.FeasibilityProvider)
	if nilModel.Feasibility() != nil {
		t.Error("a nil constraint model came back non-nil")
	}
	if got := acq.Weighted(&acq.EI{}, wrapSurrogate(constrained{m, nil}, tr)); reflect.TypeOf(got) != reflect.TypeOf(&acq.EI{}) {
		t.Errorf("acq.Weighted with a nil constraint model returned %T", got)
	}

	// Fantasies keep both the counting and the capability.
	f, err := w.Fantasize([]float64{0.2, 0.2, 0.2}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	switch f.(type) {
	case countedSurrogate, feasibleSurrogate:
	default:
		t.Errorf("fantasy is %T, not a counting wrapper", f)
	}
}

func TestSurrogateWrapperPassesPredictionsThrough(t *testing.T) {
	m, _ := fixture(t)
	tr := newTracer()
	w := wrapSurrogate(m, tr)
	x := []float64{0.4, 0.6, 0.1}
	mu0, sd0 := m.Predict(x)
	mu1, sd1 := w.Predict(x)
	g0, g1 := make([]float64, 3), make([]float64, 3)
	h0, h1 := make([]float64, 3), make([]float64, 3)
	m.PredictWithGrad(x, g0, h0)
	w.PredictWithGrad(x, g1, h1)
	if math.Float64bits(mu0) != math.Float64bits(mu1) || math.Float64bits(sd0) != math.Float64bits(sd1) ||
		!reflect.DeepEqual(g0, g1) || !reflect.DeepEqual(h0, h1) {
		t.Error("wrapped predictions differ from the model's")
	}
	if tr.predictCalls.Load() != 2 {
		t.Errorf("counted %d predictions, want 2", tr.predictCalls.Load())
	}
}

func TestStrategyWrapperKeepsProposals(t *testing.T) {
	m, st := fixture(t)
	bare, err := strategy.ByName(paperStrategy)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := strategy.ByName(paperStrategy)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	wrapped, err := wrapStrategy(inner, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bare.Propose(context.Background(), m, st, 4, rng.New(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Propose(context.Background(), m, st, 4, rng.New(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wrapped proposal %v differs from %v", got, want)
	}
	if tr.predictCalls.Load() == 0 {
		t.Error("the wrapped strategy's predictions were not counted")
	}
	if spans := tr.snapshot(); len(spans) != 1 || spans[0].Name != "strategy.propose" {
		t.Errorf("spans = %+v, want one strategy.propose", spans)
	}
}

func TestStrategyWrapperRefusesHiddenCapabilities(t *testing.T) {
	s, err := strategy.ByName("TuRBO")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapStrategy(s, newTracer()); err == nil {
		t.Error("wrapping a checkpointing strategy would hide StrategyCheckpointer; want an error")
	}
}

func TestHash64IsFNV1a(t *testing.T) {
	xs := []float64{0, -0.0, 1.5, math.Inf(1), math.NaN(), -3e-300}
	ref := fnv.New64a()
	for _, x := range xs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		if _, err := ref.Write(b[:]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fingerprint(xs), fmt.Sprintf("%016x", ref.Sum64()); got != want {
		t.Errorf("fingerprint = %s, hash/fnv gives %s", got, want)
	}
}
