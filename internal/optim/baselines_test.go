package optim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func rastrigin(x []float64) float64 {
	s := 10 * float64(len(x))
	for _, v := range x {
		s += v*v - 10*math.Cos(2*math.Pi*v)
	}
	return s
}

func TestRandomSearchImproves(t *testing.T) {
	lo, hi := boxOf(4, -5, 5)
	res := (&RandomSearch{Evals: 2000}).Minimize(sphere, lo, hi, rng.New(1, 1))
	if res.F > 5 {
		t.Fatalf("random search best %v too poor", res.F)
	}
	if res.Evals != 2000 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

func TestRandomSearchDeterministic(t *testing.T) {
	lo, hi := boxOf(3, -2, 2)
	a := (&RandomSearch{Evals: 100}).Minimize(sphere, lo, hi, rng.New(5, 5))
	b := (&RandomSearch{Evals: 100}).Minimize(sphere, lo, hi, rng.New(5, 5))
	if a.F != b.F {
		t.Fatal("random search not reproducible")
	}
}

func TestGASphere(t *testing.T) {
	lo, hi := boxOf(5, -5, 5)
	res := (&GA{Pop: 50, Generations: 80}).Minimize(sphere, lo, hi, rng.New(2, 2))
	if res.F > 0.5 {
		t.Fatalf("GA best %v too poor", res.F)
	}
}

func TestGARespectsEvalBudget(t *testing.T) {
	lo, hi := boxOf(3, -1, 1)
	res := (&GA{Pop: 20, Generations: 1000, Evals: 200}).Minimize(sphere, lo, hi, rng.New(3, 3))
	if res.Evals > 220 { // small overshoot from final partial generation
		t.Fatalf("GA used %d evals for budget 200", res.Evals)
	}
}

func TestGAWithinBounds(t *testing.T) {
	lo, hi := boxOf(4, 2, 3)
	res := (&GA{Pop: 20, Generations: 10}).Minimize(sphere, lo, hi, rng.New(4, 4))
	for _, v := range res.X {
		if v < 2 || v > 3 {
			t.Fatalf("GA left box: %v", res.X)
		}
	}
}

func TestPSOSphere(t *testing.T) {
	lo, hi := boxOf(5, -5, 5)
	res := (&PSO{Particles: 40, Iterations: 100}).Minimize(sphere, lo, hi, rng.New(6, 6))
	if res.F > 1e-3 {
		t.Fatalf("PSO best %v too poor", res.F)
	}
}

func TestPSORastriginMultimodal(t *testing.T) {
	lo, hi := boxOf(3, -5.12, 5.12)
	res := (&PSO{Particles: 60, Iterations: 200}).Minimize(rastrigin, lo, hi, rng.New(7, 7))
	if res.F > 5 {
		t.Fatalf("PSO rastrigin best %v", res.F)
	}
}

func TestPSORespectsEvalBudget(t *testing.T) {
	lo, hi := boxOf(3, -1, 1)
	res := (&PSO{Particles: 10, Iterations: 1000, Evals: 150}).Minimize(sphere, lo, hi, rng.New(8, 8))
	if res.Evals > 160 {
		t.Fatalf("PSO used %d evals for budget 150", res.Evals)
	}
}

func TestBaselinesDeterministicAcrossRuns(t *testing.T) {
	lo, hi := boxOf(4, -3, 3)
	g1 := (&GA{Pop: 16, Generations: 10}).Minimize(rastrigin, lo, hi, rng.New(9, 1))
	g2 := (&GA{Pop: 16, Generations: 10}).Minimize(rastrigin, lo, hi, rng.New(9, 1))
	if g1.F != g2.F {
		t.Fatal("GA not reproducible")
	}
	p1 := (&PSO{Particles: 12, Iterations: 15}).Minimize(rastrigin, lo, hi, rng.New(9, 2))
	p2 := (&PSO{Particles: 12, Iterations: 15}).Minimize(rastrigin, lo, hi, rng.New(9, 2))
	if p1.F != p2.F {
		t.Fatal("PSO not reproducible")
	}
}
