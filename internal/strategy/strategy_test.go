package strategy

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func sphereProblem() *core.Problem {
	return &core.Problem{
		Name:     "sphere",
		Lo:       []float64{-3, -3},
		Hi:       []float64{3, 3},
		Minimize: true,
		Evaluator: parallel.FixedCost(func(x []float64) float64 {
			return x[0]*x[0] + x[1]*x[1]
		}, 10*time.Second),
	}
}

// fitState builds a model and state from a small design.
func fitState(t *testing.T, p *core.Problem, n int) (*gp.GP, *core.State) {
	t.Helper()
	st := &core.State{Problem: p}
	design := rng.ScaleToBounds(rng.LatinHypercube(n, p.Dim(), rng.New(1, 1)), p.Lo, p.Hi)
	ys := make([]float64, n)
	for i, x := range design {
		ys[i], _ = p.Evaluator.Eval(x)
	}
	st.Observe(design, ys)
	m, err := gp.Fit(st.X, st.Y, gp.Config{
		Lo: p.Lo, Hi: p.Hi, Seed: 2, Restarts: 1, MaxIter: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

func inBounds(t *testing.T, p *core.Problem, batch [][]float64, q int) {
	t.Helper()
	if len(batch) != q {
		t.Fatalf("batch size %d, want %d", len(batch), q)
	}
	for _, x := range batch {
		if len(x) != p.Dim() {
			t.Fatalf("candidate dim %d", len(x))
		}
		for j := range x {
			if x[j] < p.Lo[j]-1e-9 || x[j] > p.Hi[j]+1e-9 {
				t.Fatalf("candidate out of bounds: %v", x)
			}
		}
	}
}

func TestAllStrategiesProposeValidBatches(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 16)
	for _, s := range allStrategies() {
		s.Reset()
		for _, q := range []int{1, 2, 4} {
			batch, err := s.Propose(context.Background(), m, st, q, rng.New(3, uint64(q)))
			if err != nil {
				t.Fatalf("%s q=%d: %v", s.Name(), q, err)
			}
			inBounds(t, p, batch, q)
		}
	}
}

func TestStrategiesProposeDistinctCandidates(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 16)
	for _, s := range allStrategies() {
		s.Reset()
		batch, err := s.Propose(context.Background(), m, st, 4, rng.New(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		distinct := 0
		for i := 0; i < len(batch); i++ {
			unique := true
			for j := 0; j < i; j++ {
				if math.Hypot(batch[i][0]-batch[j][0], batch[i][1]-batch[j][1]) < 1e-6 {
					unique = false
					break
				}
			}
			if unique {
				distinct++
			}
		}
		// At least three of four candidates should be distinct for every
		// strategy on a smooth problem.
		if distinct < 3 {
			t.Fatalf("%s: only %d distinct candidates in batch of 4", s.Name(), distinct)
		}
	}
}

func TestKBProposalsNearPredictedOptimum(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 24)
	s := NewKBQEGO()
	batch, err := s.Propose(context.Background(), m, st, 2, rng.New(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	// On a well-sampled sphere, EI concentrates near the origin: the
	// first candidate should be well inside the domain.
	r := math.Hypot(batch[0][0], batch[0][1])
	if r > 2.0 {
		t.Fatalf("first KB candidate far from optimum region: %v", batch[0])
	}
}

func TestMICUsesConfiguredCriteria(t *testing.T) {
	s := NewMICQEGO()
	if len(s.Criteria) != 2 || s.Criteria[0] != CritEI || s.Criteria[1] != CritUCB {
		t.Fatalf("default criteria = %v", s.Criteria)
	}
	if _, err := s.criterion("bogus", 0, true); err == nil {
		t.Fatal("expected error for unknown criterion")
	}
	for _, name := range []string{CritEI, CritUCB, CritPI} {
		af, err := s.criterion(name, 1, true)
		if err != nil || af == nil {
			t.Fatalf("criterion %s: %v", name, err)
		}
	}
}

func TestBSPPartitionInvariants(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 16)
	s := NewBSPEGO()
	q := 4
	for cycle := 0; cycle < 5; cycle++ {
		batch, err := s.Propose(context.Background(), m, st, q, rng.New(6, uint64(cycle)))
		if err != nil {
			t.Fatal(err)
		}
		inBounds(t, p, batch, q)
		// Leaf count stays at OverSample·q (2·4 = 8) after evolution
		// whenever a merge partner exists.
		if len(s.leaves) < q || len(s.leaves) > 2*s.OverSample*q {
			t.Fatalf("cycle %d: %d leaves", cycle, len(s.leaves))
		}
		checkCoverage(t, s, p)
	}
}

// checkCoverage verifies the leaves tile the domain: random points fall in
// exactly one leaf.
func checkCoverage(t *testing.T, s *BSPEGO, p *core.Problem) {
	t.Helper()
	stream := rng.New(7, 7)
	for i := 0; i < 200; i++ {
		x := stream.UniformVec(p.Lo, p.Hi)
		hits := 0
		for _, leaf := range s.leaves {
			inside := true
			for j := range x {
				if x[j] < leaf.lo[j] || x[j] >= leaf.hi[j] {
					inside = false
					break
				}
			}
			if inside {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("point %v covered by %d leaves", x, hits)
		}
	}
}

func TestBSPResetClearsTree(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 16)
	s := NewBSPEGO()
	if _, err := s.Propose(context.Background(), m, st, 2, rng.New(8, 8)); err != nil {
		t.Fatal(err)
	}
	if s.root == nil {
		t.Fatal("no tree built")
	}
	s.Reset()
	if s.root != nil || s.leaves != nil {
		t.Fatal("reset did not clear tree")
	}
}

func TestTuRBOTrustRegionContainsIncumbentAndShrinks(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 16)
	s := NewTuRBO()
	s.Reset()
	if _, err := s.Propose(context.Background(), m, st, 2, rng.New(9, 1)); err != nil {
		t.Fatal(err)
	}
	lo, hi := s.trustRegion(m, st)
	for j := range lo {
		if st.BestX[j] < lo[j] || st.BestX[j] > hi[j] {
			t.Fatalf("incumbent outside trust region: %v not in [%v, %v]", st.BestX[j], lo[j], hi[j])
		}
		if lo[j] < p.Lo[j] || hi[j] > p.Hi[j] {
			t.Fatal("trust region exceeds domain")
		}
	}
	// Failures shrink the region.
	l0 := s.length
	_, _, _, _, failTol := s.params(p.Dim(), 2)
	for i := 0; i < failTol; i++ {
		s.Observe(st, [][]float64{{2, 2}}, []float64{999}) // no improvement
	}
	if s.length >= l0 {
		t.Fatalf("length did not shrink: %v -> %v", l0, s.length)
	}
}

func TestTuRBOExpandsOnSuccesses(t *testing.T) {
	p := sphereProblem()
	_, st := fitState(t, p, 16)
	s := NewTuRBO()
	s.Reset()
	s.haveState = true
	s.length = 0.4
	// Simulate successTol consecutive improving batches: each batch
	// contains the current incumbent value.
	for i := 0; i < 3; i++ {
		better := st.BestY - 1
		st.Observe([][]float64{{0.1, 0.1}}, []float64{better})
		s.Observe(st, [][]float64{{0.1, 0.1}}, []float64{better})
	}
	if s.length <= 0.4 {
		t.Fatalf("length did not expand: %v", s.length)
	}
}

func TestTuRBORestartOnCollapse(t *testing.T) {
	p := sphereProblem()
	_, st := fitState(t, p, 16)
	s := NewTuRBO()
	s.Reset()
	s.haveState = true
	s.length = math.Pow(0.5, 7) * 1.5 // just above LMin
	_, _, _, _, failTol := s.params(p.Dim(), 2)
	for i := 0; i < failTol; i++ {
		s.Observe(st, [][]float64{{2, 2}}, []float64{999})
	}
	// One halving pushes below LMin and triggers the restart.
	if s.length != 0.8 {
		t.Fatalf("expected restart to 0.8, got %v", s.length)
	}
}

func TestTuRBOMultiInfillVariant(t *testing.T) {
	p := sphereProblem()
	m, st := fitState(t, p, 16)
	s := NewTuRBO()
	s.MultiInfill = true
	s.Reset()
	batch, err := s.Propose(context.Background(), m, st, 4, rng.New(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	inBounds(t, p, batch, 4)
}

func TestRegistry(t *testing.T) {
	for _, name := range Names {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("ByName(%s).Name() = %s", name, s.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
	if len(allStrategies()) != 5 {
		t.Fatalf("allStrategies() = %d strategies", len(allStrategies()))
	}
}

func TestAcquisitionForTable3(t *testing.T) {
	cases := []struct {
		name string
		q    int
		want string
	}{
		{"TuRBO", 1, "EI"},
		{"TuRBO", 4, "qEI"},
		{"MC-based q-EGO", 16, "qEI"},
		{"KB-q-EGO", 8, "EI"},
		{"mic-q-EGO", 1, "EI"},
		{"mic-q-EGO", 4, "EI/UCB (50%)"},
		{"BSP-EGO", 16, "EI"},
	}
	for _, c := range cases {
		if got := AcquisitionFor(c.name, c.q); got != c.want {
			t.Fatalf("AcquisitionFor(%s, %d) = %s, want %s", c.name, c.q, got, c.want)
		}
	}
}

// End-to-end smoke: each strategy actually optimizes the sphere through
// the engine in a tiny budget.
func TestStrategiesOptimizeSphereEndToEnd(t *testing.T) {
	for _, s := range allStrategies() {
		p := sphereProblem()
		e := &core.Engine{
			Problem:        p,
			Strategy:       s,
			BatchSize:      2,
			InitSamples:    8,
			Budget:         80 * time.Second, // 8 cycles at 10s sims
			OverheadFactor: 1,
			Model:          core.ModelConfig{Restarts: 1, MaxIter: 15, FitSubsetMax: 64},
			Seed:           11,
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.BestY > 2.0 {
			t.Fatalf("%s: final best %v too poor", s.Name(), res.BestY)
		}
	}
}

// allStrategies returns fresh instances of the five strategies under
// comparison, in Names order.
func allStrategies() []core.Strategy {
	out := make([]core.Strategy, len(Names))
	for i, n := range Names {
		s, err := ByName(n)
		if err != nil {
			panic(err) // unreachable: Names are known
		}
		out[i] = s
	}
	return out
}
