package gp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func rffTestData(n int) ([][]float64, []float64, Config) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	stream := rng.New(11, 11)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = stream.UniformVec(lo, hi)
		y[i] = math.Sin(5*X[i][0]) + X[i][1]*X[i][1]
	}
	return X, y, Config{Lo: lo, Hi: hi, Seed: 3, Restarts: 1, MaxIter: 20, Noise: 1e-4}
}

func TestRFFMatchesExactGPRoughly(t *testing.T) {
	X, y, cfg := rffTestData(80)
	exact, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rff, err := FitRFF(X, y, RFFConfig{Config: cfg, Features: 512}, exact)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(12, 12)
	var sse, denom float64
	for i := 0; i < 40; i++ {
		x := stream.UniformVec(cfg.Lo, cfg.Hi)
		me, _ := exact.Predict(x)
		mr, _ := rff.Predict(x)
		sse += (me - mr) * (me - mr)
		denom++
	}
	rmse := math.Sqrt(sse / denom)
	if rmse > 0.15 {
		t.Fatalf("RFF mean deviates from exact GP by RMSE %v", rmse)
	}
}

func TestRFFWithoutPrevModel(t *testing.T) {
	X, y, cfg := rffTestData(50)
	rff, err := FitRFF(X, y, RFFConfig{Config: cfg, Features: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mu, sd := rff.Predict([]float64{0.5, 0.5})
	if math.IsNaN(mu) || sd < 0 {
		t.Fatalf("prediction (%v, %v)", mu, sd)
	}
	if rff.features != 256 {
		t.Fatalf("features = %d", rff.features)
	}
}

func TestRFFUncertaintyGrowsOffData(t *testing.T) {
	// Train only on the left half of the cube.
	lo, hi := []float64{0, 0}, []float64{1, 1}
	stream := rng.New(13, 13)
	n := 60
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = stream.UniformVec(lo, []float64{0.4, 1})
		y[i] = X[i][0]
	}
	cfg := Config{Lo: lo, Hi: hi, Seed: 4, Noise: 1e-4}
	rff, err := FitRFF(X, y, RFFConfig{Config: cfg, Features: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, sdIn := rff.Predict([]float64{0.2, 0.5})
	_, sdOut := rff.Predict([]float64{0.95, 0.5})
	if sdOut <= sdIn {
		t.Fatalf("sd off-data %v <= sd in-data %v", sdOut, sdIn)
	}
}

func TestRFFSamplePathInterpolatesPosterior(t *testing.T) {
	X, y, cfg := rffTestData(60)
	rff, err := FitRFF(X, y, RFFConfig{Config: cfg, Features: 384}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The empirical mean of many sample paths approaches the posterior
	// mean.
	stream := rng.New(14, 14)
	x := []float64{0.3, 0.6}
	const paths = 300
	var acc float64
	for i := 0; i < paths; i++ {
		f, _ := rff.SamplePath(stream)
		acc += f(x)
	}
	mu, sd := rff.Predict(x)
	if math.Abs(acc/paths-mu) > 4*sd/math.Sqrt(paths)+0.05 {
		t.Fatalf("sample-path mean %v far from posterior mean %v (sd %v)", acc/paths, mu, sd)
	}
}

func TestRFFSamplePathGradient(t *testing.T) {
	X, y, cfg := rffTestData(40)
	rff, err := FitRFF(X, y, RFFConfig{Config: cfg, Features: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, gradF := rff.SamplePath(rng.New(15, 15))
	x := []float64{0.42, 0.58}
	g := make([]float64, 2)
	v := gradF(x, g)
	if math.Abs(v-f(x)) > 1e-10 {
		t.Fatalf("grad-eval value %v != eval %v", v, f(x))
	}
	const h = 1e-6
	for j := 0; j < 2; j++ {
		xp := append([]float64(nil), x...)
		xp[j] += h
		up := f(xp)
		xp[j] -= 2 * h
		dn := f(xp)
		num := (up - dn) / (2 * h)
		if math.Abs(num-g[j]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("path grad %d = %v, fd %v", j, g[j], num)
		}
	}
}

func TestRFFPathsDiffer(t *testing.T) {
	X, y, cfg := rffTestData(40)
	rff, err := FitRFF(X, y, RFFConfig{Config: cfg, Features: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(16, 16)
	f1, _ := rff.SamplePath(stream)
	f2, _ := rff.SamplePath(stream)
	x := []float64{0.9, 0.1} // off-data: paths should disagree
	if f1(x) == f2(x) {
		t.Fatal("independent sample paths coincide")
	}
}

func TestRFFEmptyData(t *testing.T) {
	_, _, cfg := rffTestData(5)
	if _, err := FitRFF(nil, nil, RFFConfig{Config: cfg}, nil); err == nil {
		t.Fatal("expected error")
	}
}
