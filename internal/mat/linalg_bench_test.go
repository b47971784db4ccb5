package mat

import "testing"

// benchExtendFixture builds a well-conditioned n×n factor without the
// O(n³) factorization, plus an m-column cross block in column-major
// layout.
func benchExtendFixture(b *testing.B, n, m int) (*Cholesky, []float64, *Dense) {
	b.Helper()
	rng := newTestRand(7, uint64(n))
	l := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		row := l.Row(i)
		for j := 0; j < i; j++ {
			row[j] = 0.25 / float64(n)
		}
		row[i] = 1
	}
	c, err := CholeskyFromLower(l)
	if err != nil {
		b.Fatalf("CholeskyFromLower: %v", err)
	}
	bm := randomDense(rng, n, m)
	for i, v := range bm.Data() {
		bm.Data()[i] = 0.1 * v // keep the Schur complement comfortably PD
	}
	bcols := colMajor(bm)
	cc := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		cc.Set(i, i, float64(n))
	}
	return c, bcols, cc
}

// ExtendCols on a fresh (never-solved) parent — the Kriging-Believer
// throwaway-parent case: every iteration runs the direct solve layout and
// must not build the transpose cache.
func BenchmarkExtendCols1024(b *testing.B) {
	c, bcols, cc := benchExtendFixture(b, 1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExtendCols(bcols, cc); err != nil {
			b.Fatal(err)
		}
	}
	if c.ltp.Load() != nil {
		b.Fatal("ExtendCols built the transpose cache on a fresh factor")
	}
}
