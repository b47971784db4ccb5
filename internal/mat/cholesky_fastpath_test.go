package mat

import (
	"math"
	"testing"
)

// TestExtendFreshFactorSkipsTransposeBuild is the regression test for the
// useFast misfire: extending a never-solved factor used to flip from the
// direct to the transposed solve path mid-loop over its m columns,
// force-building the O(n²) Lᵀ cache for a throwaway parent. A fresh
// factor must come out of ExtendCols with lt unbuilt and the fast-path
// trigger untouched.
func TestExtendFreshFactorSkipsTransposeBuild(t *testing.T) {
	rng := newTestRand(5, 21)
	const n, m = 24, 3
	c := freshFactor(t, rng, n)

	bcols := colMajor(randomDense(rng, n, m))
	cc := spdBlock(rng, m, float64(n))
	if _, err := c.ExtendCols(bcols, cc); err != nil {
		t.Fatalf("ExtendCols: %v", err)
	}
	if c.ltp.Load() != nil {
		t.Fatal("ExtendCols on a fresh factor built the transpose cache")
	}
	if c.solved.Load() {
		t.Fatal("ExtendCols on a fresh factor advanced the fast-path trigger")
	}

	// A factor that HAS crossed the trigger must still take the fast path
	// inside ExtendCols: pathFast builds the cache once up front.
	c3 := freshFactor(t, rng, n)
	c3.SolveVec(randomVec(rng, n)) // first solve: marks solved
	if _, err := c3.ExtendCols(bcols, cc); err != nil {
		t.Fatalf("ExtendCols: %v", err)
	}
	if c3.ltp.Load() == nil {
		t.Fatal("ExtendCols on a solved factor did not use the transposed layout")
	}
}

// TestExtendColsMatchesExtend: the extension must agree with NewCholesky
// of the assembled (n+m)×(n+m) matrix — the factor it stands in for —
// and must leave the input slice untouched. Bit identity against the
// dense operation DAG is TestPackedExtendMatchesDenseReference's job.
func TestExtendColsMatchesExtend(t *testing.T) {
	rng := newTestRand(9, 2)
	const n, m = 19, 4
	parent := randomSPD(rng, n)
	b := randomDense(rng, n, m)
	cc := spdBlock(rng, m, float64(n))

	bcols := colMajor(b)
	orig := append([]float64(nil), bcols...)

	extC, err := factorOf(t, parent).ExtendCols(bcols, cc)
	if err != nil {
		t.Fatalf("ExtendCols: %v", err)
	}
	full := NewDense(n+m, n+m, nil)
	for i := 0; i < n+m; i++ {
		for j := 0; j < n+m; j++ {
			switch {
			case i < n && j < n:
				full.Set(i, j, parent.At(i, j))
			case i < n:
				full.Set(i, j, b.At(i, j-n))
			case j < n:
				full.Set(i, j, b.At(j, i-n))
			default:
				full.Set(i, j, cc.At(i-n, j-n))
			}
		}
	}
	if d := maxDiff(extC.L(), factorOf(t, full).L()); d > 1e-10 {
		t.Fatalf("ExtendCols differs from the assembled factor by %v", d)
	}
	for i := range bcols {
		if math.Float64bits(bcols[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("ExtendCols mutated its input at %d", i)
		}
	}

	// Bad shapes panic.
	mustPanic(t, "short column block", func() {
		//lint:ignore errcheck the call panics before returning; there is no error to check
		_, _ = factorOf(t, parent).ExtendCols(bcols[:n*m-1], cc)
	})
	mustPanic(t, "non-square corner", func() {
		//lint:ignore errcheck the call panics before returning; there is no error to check
		_, _ = factorOf(t, parent).ExtendCols(bcols, NewDense(m, m+1, nil))
	})
}

// TestExtendPathsAgree: extending through the direct path (fresh parent)
// and through the transposed fast path (pre-solved parent) must produce
// identical bits — the two solve layouts execute the same floating-point
// operation DAG, which is what makes the up-front path choice trace-safe.
func TestExtendPathsAgree(t *testing.T) {
	rng := newTestRand(13, 4)
	const n, m = 31, 2
	parent := randomSPD(rng, n)
	bcols := colMajor(randomDense(rng, n, m))
	cc := spdBlock(rng, m, float64(n))

	extDirect, err := factorOf(t, parent).ExtendCols(bcols, cc)
	if err != nil {
		t.Fatalf("ExtendCols (direct): %v", err)
	}
	solvedParent := factorOf(t, parent)
	solvedParent.SolveVec(randomVec(rng, n))
	extFast, err := solvedParent.ExtendCols(bcols, cc)
	if err != nil {
		t.Fatalf("ExtendCols (fast): %v", err)
	}
	bitsEqual(t, extFast.L(), extDirect.L(), "fast vs direct ExtendCols")
}

// TestCholeskyFromLower covers the test-fixture constructor used to build
// large synthetic factors without an O(n³) factorization.
func TestCholeskyFromLower(t *testing.T) {
	rng := newTestRand(17, 8)
	const n = 16
	ref := freshFactor(t, rng, n)

	c, err := CholeskyFromLower(ref.L())
	if err != nil {
		t.Fatalf("CholeskyFromLower: %v", err)
	}
	if c.n != n {
		t.Fatalf("order = %d, want %d", c.n, n)
	}
	rhs := randomVec(rng, n)
	got, want := c.SolveVec(rhs), ref.SolveVec(rhs)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("SolveVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Upper-triangle garbage in the input must be ignored.
	dirty := ref.L()
	dirty.Set(0, n-1, math.NaN())
	c2, err := CholeskyFromLower(dirty)
	if err != nil {
		t.Fatalf("CholeskyFromLower (dirty upper): %v", err)
	}
	bitsEqual(t, c2.L(), c.L(), "upper triangle ignored")

	// Invalid diagonals are rejected, not deferred to a later solve.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		l := ref.L()
		l.Set(3, 3, bad)
		if _, err := CholeskyFromLower(l); err == nil {
			t.Fatalf("CholeskyFromLower accepted diagonal %v", bad)
		}
	}
	mustPanic(t, "non-square factor", func() {
		//lint:ignore errcheck the call panics before returning; there is no error to check
		_, _ = CholeskyFromLower(NewDense(3, 4, nil))
	})
}

// mustPanic asserts fn panics.
func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}

// freshFactor builds an n×n SPD factor that has never been solved.
func freshFactor(t *testing.T, rng *testRand, n int) *Cholesky {
	t.Helper()
	return factorOf(t, randomSPD(rng, n))
}

// factorOf factors a; calling it twice on the same matrix yields two
// independent but bit-identical factors (factorization is deterministic).
func factorOf(t *testing.T, a *Dense) *Cholesky {
	t.Helper()
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	return c
}

// spdBlock builds an m×m SPD corner block with diagonal dominance ~diag.
func spdBlock(rng *testRand, m int, diag float64) *Dense {
	cc := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			cc.Set(i, j, v)
			cc.Set(j, i, v)
		}
		cc.Add(i, i, diag)
	}
	return cc
}
