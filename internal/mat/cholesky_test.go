package mat

import (
	"math"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive-definite matrix A = GᵀG + n·I.
func randomSPD(rng *testRand, n int) *Dense {
	g := randomDense(rng, n, n)
	a := mulRef(transposeRef(g), g)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func maxDiff(a, b *Dense) float64 {
	var m float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > m {
				m = d
			}
		}
	}
	return m
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := newTestRand(7, 7)
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randomSPD(rng, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := mulRef(c.L(), transposeRef(c.L()))
		if d := maxDiff(a, recon); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := newTestRand(8, 8)
	a := randomSPD(rng, 12)
	xTrue := randomVec(rng, 12)
	b := mulVecRef(a, xTrue)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := c.SolveVec(b)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskySolveMatAndInverse(t *testing.T) {
	rng := newTestRand(9, 9)
	a := randomSPD(rng, 8)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inv := inverse(c)
	prod := mulRef(a, inv)
	if d := maxDiff(prod, Identity(8)); d > 1e-9 {
		t.Fatalf("A·A⁻¹ differs from I by %v", d)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: logdet is the sum of log of diagonal entries.
	d := NewDense(3, 3, nil)
	d.Set(0, 0, 2)
	d.Set(1, 1, 3)
	d.Set(2, 2, 4)
	c, err := NewCholesky(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(2) + math.Log(3) + math.Log(4)
	if !almostEq(c.LogDet(), want, 1e-12) {
		t.Fatalf("logdet = %v, want %v", c.LogDet(), want)
	}
}

func TestCholeskyForwardBack(t *testing.T) {
	rng := newTestRand(10, 10)
	a := randomSPD(rng, 6)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := randomVec(rng, 6)
	// back(forward(b)) should equal SolveVec(b).
	y := c.ForwardSolveVecInto(make([]float64, 6), b)
	x := c.BackSolveVec(y)
	x2 := c.SolveVec(b)
	for i := range x {
		if !almostEq(x[i], x2[i], 1e-12) {
			t.Fatal("forward+back != solve")
		}
	}
	// L·forward(b) == b
	lb := mulVecRef(c.L(), y)
	for i := range lb {
		if !almostEq(lb[i], b[i], 1e-10) {
			t.Fatal("forward solve incorrect")
		}
	}
}

func TestCholeskyJitterRecovery(t *testing.T) {
	// Rank-deficient matrix needs jitter; it must factorize with jitter > 0.
	n := 5
	x := randomVec(newTestRand(11, 11), n)
	a := NewDense(n, n, nil)
	a.SymOuterUpdate(1, x) // rank one
	c, err := NewCholesky(a, 1e-8, 1)
	if err != nil {
		t.Fatalf("jitter escalation failed: %v", err)
	}
	if c.jitter <= 0 {
		t.Fatal("expected nonzero jitter for singular matrix")
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 0, 0, -5})
	if _, err := NewCholesky(a, 1e-12, 1e-10); err == nil {
		t.Fatal("expected failure for indefinite matrix with tiny max jitter")
	}
}

func TestCholeskyExtend(t *testing.T) {
	rng := newTestRand(12, 12)
	for _, tc := range []struct{ n, m int }{{3, 1}, {5, 2}, {10, 4}, {1, 1}} {
		full := randomSPD(rng, tc.n+tc.m)
		// Split into blocks.
		a := NewDense(tc.n, tc.n, nil)
		b := NewDense(tc.n, tc.m, nil)
		cc := NewDense(tc.m, tc.m, nil)
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.n; j++ {
				a.Set(i, j, full.At(i, j))
			}
			for j := 0; j < tc.m; j++ {
				b.Set(i, j, full.At(i, tc.n+j))
			}
		}
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.m; j++ {
				cc.Set(i, j, full.At(tc.n+i, tc.n+j))
			}
		}
		ca, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := ca.ExtendCols(colMajor(b), cc)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := NewCholesky(full, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(ext.L(), direct.L()); d > 1e-8 {
			t.Fatalf("n=%d m=%d: extended factor differs by %v", tc.n, tc.m, d)
		}
	}
}

func TestCholeskyExtendSolveConsistency(t *testing.T) {
	rng := newTestRand(13, 13)
	full := randomSPD(rng, 9)
	a := NewDense(6, 6, nil)
	b := NewDense(6, 3, nil)
	cc := NewDense(3, 3, nil)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a.Set(i, j, full.At(i, j))
		}
		for j := 0; j < 3; j++ {
			b.Set(i, j, full.At(i, 6+j))
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			cc.Set(i, j, full.At(6+i, 6+j))
		}
	}
	ca, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ca.ExtendCols(colMajor(b), cc)
	if err != nil {
		t.Fatal(err)
	}
	rhs := randomVec(rng, 9)
	x := ext.SolveVec(rhs)
	back := mulVecRef(full, x)
	for i := range rhs {
		if !almostEq(back[i], rhs[i], 1e-8) {
			t.Fatalf("extend solve mismatch: %v vs %v", back[i], rhs[i])
		}
	}
}

// Property: for any SPD matrix, solving then multiplying round-trips.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := newTestRand(seed, 99)
		n := 1 + int(rng.Uint64()%12)
		a := randomSPD(rng, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			return false
		}
		b := randomVec(rng, n)
		x := c.SolveVec(b)
		ax := mulVecRef(a, x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LogDet matches the product of squared diagonal factor entries.
func TestCholeskyLogDetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := newTestRand(seed, 7)
		n := 1 + int(rng.Uint64()%8)
		a := randomSPD(rng, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += 2 * math.Log(c.L().At(i, i))
		}
		return almostEq(c.LogDet(), sum, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholesky100(b *testing.B) {
	rng := newTestRand(1, 1)
	a := randomSPD(rng, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyExtend100x4(b *testing.B) {
	rng := newTestRand(2, 2)
	full := randomSPD(rng, 104)
	a := NewDense(100, 100, nil)
	bb := NewDense(100, 4, nil)
	cc := NewDense(4, 4, nil)
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			a.Set(i, j, full.At(i, j))
		}
		for j := 0; j < 4; j++ {
			bb.Set(i, j, full.At(i, 100+j))
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			cc.Set(i, j, full.At(100+i, 100+j))
		}
	}
	ca, err := NewCholesky(a, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	bcols := colMajor(bb)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ca.ExtendCols(bcols, cc); err != nil {
			b.Fatal(err)
		}
	}
}
