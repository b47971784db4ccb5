package bnn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/surrogate"
)

func cfg2d() Config {
	return Config{
		Lo: []float64{-2, -2}, Hi: []float64{2, 2},
		Hidden: 24, HiddenLayers: 2, Members: 3, Epochs: 120, Seed: 1,
	}
}

func quadData(n int, stream *rng.Stream) ([][]float64, []float64) {
	lo, hi := []float64{-2, -2}, []float64{2, 2}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = stream.UniformVec(lo, hi)
		y[i] = X[i][0]*X[i][0] + 0.5*X[i][1]*X[i][1]
	}
	return X, y
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, cfg2d()); err == nil {
		t.Fatal("expected error for empty data")
	}
	bad := cfg2d()
	bad.Lo = []float64{1, 1}
	bad.Hi = []float64{0, 0}
	if _, err := Fit([][]float64{{0, 0}}, []float64{1}, bad); err == nil {
		t.Fatal("expected error for inverted bounds")
	}
	if _, err := Fit([][]float64{{0}}, []float64{1}, cfg2d()); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
}

func TestEnsembleLearnsQuadratic(t *testing.T) {
	stream := rng.New(2, 2)
	X, y := quadData(150, stream)
	e, err := Fit(X, y, cfg2d())
	if err != nil {
		t.Fatal(err)
	}
	// In-distribution accuracy.
	var sse, n float64
	for i := 0; i < 50; i++ {
		x := stream.UniformVec([]float64{-1.5, -1.5}, []float64{1.5, 1.5})
		want := x[0]*x[0] + 0.5*x[1]*x[1]
		got, _ := e.Predict(x)
		sse += (got - want) * (got - want)
		n++
	}
	rmse := math.Sqrt(sse / n)
	if rmse > 0.35 {
		t.Fatalf("ensemble RMSE %v too large", rmse)
	}
}

func TestEnsembleUncertaintyStructure(t *testing.T) {
	// Train only on a small central region: disagreement must be larger
	// far outside the data than at the center.
	stream := rng.New(3, 3)
	n := 80
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = stream.UniformVec([]float64{-0.5, -0.5}, []float64{0.5, 0.5})
		y[i] = X[i][0] + X[i][1]
	}
	e, err := Fit(X, y, cfg2d())
	if err != nil {
		t.Fatal(err)
	}
	_, sdCenter := e.Predict([]float64{0, 0})
	_, sdFar := e.Predict([]float64{1.9, -1.9})
	if sdFar <= sdCenter {
		t.Fatalf("sd far %v <= sd center %v", sdFar, sdCenter)
	}
}

func TestDeterministicTraining(t *testing.T) {
	stream := rng.New(4, 4)
	X, y := quadData(60, stream)
	e1, err := Fit(X, y, cfg2d())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Fit(X, y, cfg2d())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7}
	m1, s1 := e1.Predict(x)
	m2, s2 := e2.Predict(x)
	if m1 != m2 || s1 != s2 {
		t.Fatal("training not deterministic for identical seeds")
	}
}

func TestMembersCount(t *testing.T) {
	stream := rng.New(5, 5)
	X, y := quadData(40, stream)
	c := cfg2d()
	c.Members = 4
	e, err := Fit(X, y, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.nets) != 4 {
		t.Fatalf("members = %d", len(e.nets))
	}
}

func TestConstantTargets(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {-1, 0.5}, {0.2, -0.3}}
	y := []float64{5, 5, 5, 5}
	e, err := Fit(X, y, cfg2d())
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := e.Predict([]float64{0.5, 0.5})
	if math.Abs(mu-5) > 0.5 {
		t.Fatalf("constant prediction %v, want ≈ 5", mu)
	}
}

func TestPredictDimPanics(t *testing.T) {
	stream := rng.New(6, 6)
	X, y := quadData(30, stream)
	e, err := Fit(X, y, cfg2d())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Predict([]float64{1})
}

func TestTrainingReducesLoss(t *testing.T) {
	// A single member's loss on its own training batch must shrink.
	stream := rng.New(7, 7)
	X, y := quadData(64, stream)
	base := cfg2d()
	c := base.withDefaults()
	net := newMLP([]int{2, 16, 16, 1}, rng.New(8, 8))
	nx := make([][]float64, len(X))
	for i, x := range X {
		u := make([]float64, 2)
		for j := range x {
			u[j] = x[j] / 2
		}
		nx[i] = u
	}
	first := net.trainStep(nx, y, c.LR, 0)
	var last float64
	for i := 0; i < 200; i++ {
		last = net.trainStep(nx, y, c.LR, 0)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestPredictJointEmptyBatch(t *testing.T) {
	stream := rng.New(5, 5)
	X, y := quadData(30, stream)
	c := cfg2d()
	c.Epochs = 5
	e, err := Fit(X, y, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PredictJoint(nil); !errors.Is(err, surrogate.ErrEmptyBatch) {
		t.Fatalf("bnn.PredictJoint(nil) err = %v, want ErrEmptyBatch", err)
	}
}
