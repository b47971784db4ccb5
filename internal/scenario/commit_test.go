package scenario

import (
	"context"
	"math"
	"testing"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/uphes"
)

// specRecorder is a DayRunner that runs each cell in-process and keeps
// the spec it was handed, so a test can look at the cell the day ran
// through after RunMember has committed it.
type specRecorder struct {
	specs []*DaySpec
}

func (r *specRecorder) RunDay(ctx context.Context, spec *DaySpec, opt OptConfig) (*core.Result, error) {
	r.specs = append(r.specs, spec)
	return LocalRunner{}.RunDay(ctx, spec, opt)
}

// TestRunMemberSimulatesEachPointOnce pins the commit path's cost: an
// in-process day simulates each evaluated point once — the feasibility
// judgement and the committed day's realization are cache lookups — and
// a fallback day adds exactly one simulation, the idle schedule's.
func TestRunMemberSimulatesEachPointOnce(t *testing.T) {
	for _, horizon := range []int{1, 2} {
		rec := &specRecorder{}
		gen := GenConfig{Seed: 1, Members: 2}
		mr, err := RunMember(context.Background(), rec, gen, ConstraintConfig{}, scenarioTestOpt(), 1, 8, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		optimized, fallbacks := 0, 0
		for d, day := range mr.Days {
			_, cons, err := rec.specs[d].Build()
			if err != nil {
				t.Fatal(err)
			}
			want := int64(day.Evals)
			if day.Fallback {
				want++
				fallbacks++
			} else {
				optimized++
			}
			cons.mu.Lock()
			got := int64(len(cons.cache)) // one entry per horizon simulated
			cons.mu.Unlock()
			if got != want {
				t.Fatalf("horizon %d day %d (fallback %v): %d horizon simulations, want %d", horizon, d, day.Fallback, got, want)
			}
		}
		if horizon == 1 && (optimized == 0 || fallbacks == 0) {
			t.Fatalf("want both optimized and fallback days, got %d and %d", optimized, fallbacks)
		}
	}
}

// TestDaySpecCellReuse pins the cell-reuse contract: Build on the same
// unchanged *DaySpec returns a fresh Problem over the same Constrained,
// while a copy, or a spec edited in place, builds a cell of its own.
func TestDaySpecCellReuse(t *testing.T) {
	spec := &DaySpec{Gen: GenConfig{Seed: 5, Members: 2}, Member: 1, Day: 3, Horizon: 1}
	p1, c1, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, c2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("an unchanged spec rebuilt its cell")
	}
	if p2 == p1 || &p2.Lo[0] == &p1.Lo[0] {
		t.Fatal("Build shared the Problem between calls")
	}

	cp := *spec
	if _, cc, err := cp.Build(); err != nil || cc == c1 {
		t.Fatalf("a copied spec saw the original's cell (err %v)", err)
	}

	edited := *spec
	edited.Start = uphes.PlantState{UpperV: 1000, LowerV: 2000}
	_, ce, err := edited.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ce == c1 || ce.Start != edited.Start {
		t.Fatalf("a copied and edited spec did not build its own cell: start %+v", ce.Start)
	}

	spec.Day = 4
	_, c3, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("a spec edited in place kept its old cell")
	}
	fresh := &DaySpec{Gen: spec.Gen, Member: 1, Day: 4, Horizon: 1}
	_, cf, err := fresh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDay(&c3.Inputs[0], &cf.Inputs[0]) {
		t.Fatal("the rebuilt cell does not hold the edited day's inputs")
	}

	bad := *spec
	bad.Horizon = 0
	if _, _, err := bad.Build(); err == nil {
		t.Fatal("an invalid copy of a built spec built without error")
	}
}

// violationGP fits a GP in the scenario's 12-dimensional decision box to
// a smooth synthetic violation surface.
func violationGP(t *testing.T) *gp.GP {
	t.Helper()
	cfg := uphes.DefaultConfig()
	lo, hi := cfg.Bounds()
	s := rng.New(3, 3)
	xs := make([][]float64, 40)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = s.UniformVec(lo, hi)
		ys[i] = math.Max(0, xs[i][0]+0.5*xs[i][1]-2)
	}
	g, err := gp.Fit(xs, ys, gp.Config{Lo: lo, Hi: hi, Seed: 3, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPoFWithGradAllocs pins the feasibility gradient at zero
// steady-state allocations, alone and inside the feasibility-weighted
// criterion the scenario engine's acquisition maximizes.
func TestPoFWithGradAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := violationGP(t)
	pof := &pofModel{g: g}
	x := make([]float64, uphes.Dim)
	x[0], x[3] = 2, -1
	grad := make([]float64, uphes.Dim)
	pof.PoFWithGrad(x, grad) // warm the pools
	if got := testing.AllocsPerRun(200, func() {
		pof.PoFWithGrad(x, grad)
	}); got > 0 {
		t.Fatalf("pofModel.PoFWithGrad allocates %v times per call, want 0", got)
	}

	w := acq.Weighted(&acq.EI{Best: 0}, &constrainedSurrogate{Surrogate: g, pof: pof})
	if _, ok := w.(*acq.FeasibilityWeighted); !ok {
		t.Fatalf("constrained surrogate did not weight the criterion: %T", w)
	}
	w.EvalWithGrad(g, x, grad)
	if got := testing.AllocsPerRun(200, func() {
		w.EvalWithGrad(g, x, grad)
	}); got > 0 {
		t.Fatalf("FeasibilityWeighted.EvalWithGrad allocates %v times per call, want 0", got)
	}
}
