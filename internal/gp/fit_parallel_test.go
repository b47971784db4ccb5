package gp

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/fp"
	"repro/internal/mat"
	"repro/internal/rng"
)

// fitWorkspaceFor builds a fit workspace sized for evaluating the
// marginal likelihood of g over x with np packed hyperparameters.
func fitWorkspaceFor(g *GP, x *mat.Dense, np int) *fitWorkspace {
	n := x.Rows()
	ws := new(fitWorkspace)
	ws.ensure(n, np, g.kern.NumParams(), (n+lmlGradBand-1)/lmlGradBand)
	return ws
}

// fitFixture builds a fitted GP over n synthetic points plus a
// hyperparameter vector at which to probe the LML.
func fitFixture(t *testing.T, n int) (*GP, []float64) {
	t.Helper()
	X, y, cfg := benchData(n)
	g, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	p := make([]float64, 0, g.kern.NumParams()+1)
	p = append(p, 0.1)
	for i := 0; i < g.d; i++ {
		p = append(p, math.Log(0.35))
	}
	p = append(p, math.Log(2e-4))
	return g, p
}

// TestGramIntoMatchesPerPair: the batched EvalRow Gram fill must
// reproduce the per-pair kern.Eval loop it replaced exactly — fp.Exact,
// not tolerance — including the noise on the diagonal and the mirrored
// upper triangle. This is the exactness contract that makes the gram
// migration (and with it every golden trace) safe at all sizes.
func TestGramIntoMatchesPerPair(t *testing.T) {
	g, p := fitFixture(t, 40)
	g.applyParams(p)
	n := g.x.Rows()

	want := mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		xi := g.x.Row(i)
		for j := 0; j <= i; j++ {
			v := g.kern.Eval(xi, g.x.Row(j))
			if i == j {
				v += g.noise
			}
			want.Set(i, j, v)
			want.Set(j, i, v)
		}
	}
	got := g.gramInto(mat.NewDense(n, n, nil), g.x)
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if !fp.Exact(gd[i], wd[i]) {
			t.Fatalf("gram[%d] = %v, want %v", i, gd[i], wd[i])
		}
	}
}

// TestGramIntoParallelBitIdentity forces gramInto down its banded
// parallel branch on a small fixture and checks it reproduces the serial
// branch byte for byte at GOMAXPROCS 1 and 8: the row partition depends
// only on n, every band writes disjoint rows, and the mirror pass copies
// finished values.
func TestGramIntoParallelBitIdentity(t *testing.T) {
	g, p := fitFixture(t, 56)
	g.applyParams(p)
	n := g.x.Rows()

	want := g.gramInto(mat.NewDense(n, n, nil), g.x) // serial: n < gramParallelN

	old := gramParallelN
	gramParallelN = 1
	defer func() { gramParallelN = old }()
	for _, procs := range []int{1, 8} {
		oldProcs := runtime.GOMAXPROCS(procs)
		got := g.gramInto(mat.NewDense(n, n, nil), g.x)
		runtime.GOMAXPROCS(oldProcs)
		gd, wd := got.Data(), want.Data()
		for i := range wd {
			if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
				t.Fatalf("procs=%d: gram[%d] = %v, want %v", procs, i, gd[i], wd[i])
			}
		}
	}
}

// TestLMLGradBandedBitIdentity pins the two halves of the banded
// gradient-trace contract: (1) the banded path is bitwise-identical to
// itself at GOMAXPROCS 1 and 8 — per-band partials live in private slots
// and are reduced in fixed band order, so the worker count cannot touch
// the bits; (2) against the legacy serial fold the banded association
// differs only in rounding — every gradient component agrees to relative
// tolerance — which is why the lmlGradBandN gate (not a correctness fix)
// keeps golden-trace-scale fits on the legacy DAG.
func TestLMLGradBandedBitIdentity(t *testing.T) {
	g, p := fitFixture(t, 72)
	ws := fitWorkspaceFor(g, g.x, len(p))

	lmlSerial, gr, err := g.logMarginalLikelihood(g.x, g.ys, p, ws)
	if err != nil {
		t.Fatalf("logMarginalLikelihood (serial): %v", err)
	}
	serial := append([]float64(nil), gr...)

	oldBand := lmlGradBandN
	lmlGradBandN = 1
	defer func() { lmlGradBandN = oldBand }()

	var banded []float64
	var lmlBanded float64
	for _, procs := range []int{1, 8} {
		oldProcs := runtime.GOMAXPROCS(procs)
		lml, gr, err := g.logMarginalLikelihood(g.x, g.ys, p, ws)
		runtime.GOMAXPROCS(oldProcs)
		if err != nil {
			t.Fatalf("logMarginalLikelihood (banded, procs=%d): %v", procs, err)
		}
		if banded == nil {
			banded = append([]float64(nil), gr...)
			lmlBanded = lml
			continue
		}
		if math.Float64bits(lml) != math.Float64bits(lmlBanded) {
			t.Fatalf("banded LML differs across GOMAXPROCS: %v vs %v", lml, lmlBanded)
		}
		for i := range banded {
			if math.Float64bits(gr[i]) != math.Float64bits(banded[i]) {
				t.Fatalf("banded grad[%d] differs across GOMAXPROCS: %v vs %v", i, gr[i], banded[i])
			}
		}
	}

	// The LML itself never goes through the banded fold — identical bits.
	if math.Float64bits(lmlBanded) != math.Float64bits(lmlSerial) {
		t.Fatalf("LML = %v banded, %v serial", lmlBanded, lmlSerial)
	}
	for i := range serial {
		diff := math.Abs(banded[i] - serial[i])
		if diff > 1e-9*(1+math.Abs(serial[i])) {
			t.Fatalf("banded grad[%d] = %v, serial %v (diff %v)", i, banded[i], serial[i], diff)
		}
	}
}

// TestFitWorkspaceReuseBitIdentity: evaluating the LML through a dirty,
// recycled workspace must give exactly the bits a fresh workspace gives —
// the pooled buffers carry no state between evaluations (InverseInto and
// the accumulators overwrite before reading).
func TestFitWorkspaceReuseBitIdentity(t *testing.T) {
	g, p := fitFixture(t, 33)

	fresh := fitWorkspaceFor(g, g.x, len(p))
	wantLML, gr, err := g.logMarginalLikelihood(g.x, g.ys, p, fresh)
	if err != nil {
		t.Fatalf("logMarginalLikelihood: %v", err)
	}
	want := append([]float64(nil), gr...)

	dirty := fitWorkspaceFor(g, g.x, len(p))
	// Poison every pooled buffer, then evaluate at a different point first
	// so the workspace arrives genuinely used.
	for i := range dirty.gram.Data() {
		dirty.gram.Data()[i] = math.NaN()
	}
	for i := range dirty.inv.Data() {
		dirty.inv.Data()[i] = math.Inf(1)
	}
	p2 := append([]float64(nil), p...)
	p2[0] += 0.3
	if _, _, err := g.logMarginalLikelihood(g.x, g.ys, p2, dirty); err != nil {
		t.Fatalf("logMarginalLikelihood (warmup): %v", err)
	}
	gotLML, got, err := g.logMarginalLikelihood(g.x, g.ys, p, dirty)
	if err != nil {
		t.Fatalf("logMarginalLikelihood (reused): %v", err)
	}
	if math.Float64bits(gotLML) != math.Float64bits(wantLML) {
		t.Fatalf("reused workspace LML = %v, fresh %v", gotLML, wantLML)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("reused workspace grad[%d] = %v, fresh %v", i, got[i], want[i])
		}
	}
}

// TestFantasyChainSharesPrefix pins tentpole (c): a Kriging-Believer
// fantasy chain must pay for ONE transpose-cache build — the root's —
// with every link (child, grandchild, ...) sharing the root's packed
// prefix object instead of building an O(n²) cache of its own. After Fit
// the root factor has already served its alpha solve, so the first
// extension is what crosses the trigger and builds the root cache.
func TestFantasyChainSharesPrefix(t *testing.T) {
	X, y, cfg := benchData(40)
	g, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	stream := rng.New(11, 3)
	lo := make([]float64, g.d)
	hi := make([]float64, g.d)
	for i := range hi {
		hi[i] = 1
	}

	cur := g
	for step := 0; step < 3; step++ {
		x := stream.UniformVec(lo, hi)
		mu, sd := cur.Predict(x)
		if math.IsNaN(mu) || math.IsNaN(sd) {
			t.Fatalf("step %d: chain prediction NaN", step)
		}
		fg, err := cur.Fantasize(x, mu)
		if err != nil {
			t.Fatalf("Fantasize step %d: %v", step, err)
		}
		next := fg.(*GP)
		if !next.chol.SharesTransposeCache(g.chol) {
			t.Fatalf("fantasy step %d did not inherit the root transpose cache", step)
		}
		cur = next
	}
	if !g.chol.HasTransposeCache() {
		t.Fatal("root factor never built its cache")
	}
}
