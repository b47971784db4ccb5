package mat

import (
	"math"
	"runtime"
	"testing"
)

// This file pins the packed-triangular refactor to the dense reference
// implementation it replaced: in-test dense re-implementations of
// factorize, both solve layouts, InverseInto and ExtendCols evaluate the
// exact floating-point operation DAG the pre-packed code ran, and every
// packed result must match them bit for bit on random SPD inputs. The
// packed layout is allowed to change addresses, never arithmetic.

// denseRefFactor is the pre-packed textbook factorization of a + jitter·I
// into a dense lower triangle.
func denseRefFactor(t *testing.T, a *Dense, jitter float64) *Dense {
	t.Helper()
	n := a.rows
	l := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		lrow := l.Row(i)
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			ljrow := l.Row(j)
			for k := 0; k < j; k++ {
				sum -= lrow[k] * ljrow[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					t.Fatalf("dense reference factorization failed at pivot %d", i)
				}
				lrow[j] = math.Sqrt(sum)
			} else {
				lrow[j] = sum / ljrow[j]
			}
		}
	}
	return l
}

// denseRefForward / denseRefBack are the pre-packed direct solve kernels
// on a dense lower triangle.
func denseRefForward(l *Dense, y []float64) {
	n := l.rows
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := y[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
}

func denseRefBack(l *Dense, y []float64) {
	n := l.rows
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
}

// denseRefInverse is the pre-packed two-phase triangular inverse.
func denseRefInverse(l *Dense) *Dense {
	n := l.rows
	wt := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		wrow := wt.Row(i)
		wrow[i] = 1 / l.At(i, i)
		for k := i + 1; k < n; k++ {
			lrow := l.Row(k)[:k]
			var s float64
			for j := i; j < k; j++ {
				s -= lrow[j] * wrow[j]
			}
			wrow[k] = s / l.At(k, k)
		}
	}
	inv := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		wi := wt.Row(i)
		for j := 0; j <= i; j++ {
			wj := wt.Row(j)
			var s float64
			for k := i; k < n; k++ {
				s += wi[k] * wj[k]
			}
			inv.data[i*n+j] = s
			inv.data[j*n+i] = s
		}
	}
	return inv
}

func vecBitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestPackedFactorizeMatchesDense: packed factorization reproduces the
// dense reference bit for bit across sizes, including the odd sizes that
// exercise every remainder path of the blocked kernels.
func TestPackedFactorizeMatchesDense(t *testing.T) {
	rng := newTestRand(31, 7)
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33, 64, 101} {
		a := randomSPD(rng, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		ref := denseRefFactor(t, a, c.jitter)
		bitsEqual(t, c.L(), ref, "packed vs dense factor")
		// LogDet reads packed pivots; cross-check against dense pivots.
		var want float64
		for i := 0; i < n; i++ {
			want += math.Log(ref.At(i, i))
		}
		want *= 2
		if math.Float64bits(c.LogDet()) != math.Float64bits(want) {
			t.Fatalf("n=%d: LogDet = %v, want %v", n, c.LogDet(), want)
		}
	}
}

// TestPackedSolvesMatchDense: both solve layouts — the direct packed-row
// kernels and the packed column-major fast path built on the second
// solve — must match the dense reference kernels bitwise. This is the
// bit-identity argument for the layout change: per element, updates
// arrive in increasing k with the division at the same point, so storage
// cannot touch the result.
func TestPackedSolvesMatchDense(t *testing.T) {
	rng := newTestRand(41, 9)
	for _, n := range []int{1, 2, 3, 7, 30, 65, 129} {
		a := randomSPD(rng, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		ref := denseRefFactor(t, a, c.jitter)
		b := randomVec(rng, n)

		want := append([]float64(nil), b...)
		denseRefForward(ref, want)
		fwdDirect := c.ForwardSolveVecInto(make([]float64, n), b) // first solve: direct layout
		vecBitsEqual(t, fwdDirect, want, "direct forward solve")
		fwdFast := c.ForwardSolveVecInto(make([]float64, n), b) // second solve: builds + uses the cache
		if !c.HasTransposeCache() {
			t.Fatalf("n=%d: second solve did not build the cache", n)
		}
		vecBitsEqual(t, fwdFast, want, "fast forward solve")

		wantBack := append([]float64(nil), b...)
		denseRefBack(ref, wantBack)
		vecBitsEqual(t, c.BackSolveVec(b), wantBack, "fast back solve")

		full := append([]float64(nil), b...)
		denseRefForward(ref, full)
		denseRefBack(ref, full)
		vecBitsEqual(t, c.SolveVec(b), full, "full solve")

		// A factor denied the cache must produce the same bits direct.
		c2, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		vecBitsEqual(t, c2.BackSolveVec(b), wantBack, "direct back solve")
		vecBitsEqual(t, c2.SolveVec(b), full, "direct full solve")
	}
}

// TestPackedSolveMatAndInverseMatchDense: InverseInto runs the two-phase
// triangular inverse on packed reads and must match the dense reference
// bitwise; InverseInto must be indifferent to dirty scratch.
func TestPackedSolveMatAndInverseMatchDense(t *testing.T) {
	rng := newTestRand(51, 3)
	const n = 23
	a := randomSPD(rng, n)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	ref := denseRefFactor(t, a, c.jitter)

	wantInv := denseRefInverse(ref)
	bitsEqual(t, inverse(c), wantInv, "InverseInto vs dense reference")

	inv := NewDense(n, n, nil)
	wt := NewDense(n, n, nil)
	for i := range inv.data {
		inv.data[i] = math.NaN()
		wt.data[i] = math.Inf(1)
	}
	bitsEqual(t, c.InverseInto(inv, wt), wantInv, "InverseInto with dirty scratch")
}

// TestPackedExtendMatchesDenseReference: ExtendCols on the packed layout must
// reproduce the dense reference extension — parent copy, per-column
// forward solves, Schur complement, corner factorization — bit for bit,
// through both the direct path (fresh parent) and the cached path
// (pre-solved parent), matching TestExtendPathsAgree's contract.
func TestPackedExtendMatchesDenseReference(t *testing.T) {
	rng := newTestRand(61, 13)
	const n, m = 27, 3
	a := randomSPD(rng, n)
	b := randomDense(rng, n, m)
	cc := spdBlock(rng, m, float64(n))

	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	ref := denseRefFactor(t, a, c.jitter)

	// Dense reference extension.
	w := NewDense(m, n, nil)
	for j := 0; j < m; j++ {
		row := w.Row(j)
		for i := 0; i < n; i++ {
			row[i] = b.At(i, j)
		}
		denseRefForward(ref, row)
	}
	s := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := cc.At(i, j) - Dot(w.Row(i), w.Row(j))
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	scPacked, err := NewCholesky(s, 0, 0)
	if err != nil {
		t.Fatalf("corner factor: %v", err)
	}
	sc := denseRefFactor(t, s, scPacked.jitter)
	want := NewDense(n+m, n+m, nil)
	for i := 0; i < n; i++ {
		copy(want.Row(i)[:i+1], ref.Row(i)[:i+1])
	}
	for j := 0; j < m; j++ {
		copy(want.Row(n + j)[:n], w.Row(j))
		copy(want.Row(n + j)[n:n+j+1], sc.Row(j)[:j+1])
	}

	ext, err := c.ExtendCols(colMajor(b), cc)
	if err != nil {
		t.Fatalf("ExtendCols: %v", err)
	}
	bitsEqual(t, ext.L(), want, "packed ExtendCols vs dense reference")

	solvedParent, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	solvedParent.SolveVec(randomVec(rng, n))
	extFast, err := solvedParent.ExtendCols(colMajor(b), cc)
	if err != nil {
		t.Fatalf("ExtendCols (fast): %v", err)
	}
	bitsEqual(t, extFast.L(), want, "packed ExtendCols (cached parent) vs dense reference")
}

// TestInheritedPrefixSolveBitIdentity pins the mixed solve kernels: a
// child carrying its parent's cache prefix (np < n) reads rows below np
// from the shared packed columns and the extension rows from packed row
// storage, and must produce exactly the bits a cache-less child produces
// on the direct layout — down a three-link chain sharing one root cache.
func TestInheritedPrefixSolveBitIdentity(t *testing.T) {
	rng := newTestRand(71, 17)
	const n = 33
	a := randomSPD(rng, n)

	build := func(withCache bool) *Cholesky {
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		if withCache {
			c.SolveVec(randomVec(rng, n)) // advance the trigger...
			c.SolveVec(randomVec(rng, n)) // ...and build the cache
			if !c.HasTransposeCache() {
				t.Fatal("cache not built")
			}
		}
		return c
	}

	root := build(true)
	plain := build(false)

	curFast, curDirect := root, plain
	for link := 0; link < 3; link++ {
		m := 1 + link%2
		bc := colMajor(randomDense(rng, curFast.n, m))
		cc := spdBlock(rng, m, float64(n))
		extFast, err := curFast.ExtendCols(bc, cc)
		if err != nil {
			t.Fatalf("link %d: ExtendCols (fast): %v", link, err)
		}
		extDirect, err := curDirect.ExtendCols(bc, cc)
		if err != nil {
			t.Fatalf("link %d: ExtendCols (direct): %v", link, err)
		}
		if !extFast.SharesTransposeCache(root) {
			t.Fatalf("link %d did not inherit the root cache", link)
		}
		if extDirect.HasTransposeCache() {
			t.Fatalf("link %d of the cache-less chain built a cache", link)
		}

		nn := extFast.n
		rhs := randomVec(rng, nn)
		// The inherited factor solves on the mixed prefix+packed-row path
		// from its first solve. The reference bits come from throwaway
		// siblings of the cache-less child, each serving exactly one solve
		// so none ever crosses the fast-path trigger — pure direct layout.
		sibling := func() *Cholesky {
			e, err := curDirect.ExtendCols(bc, cc)
			if err != nil {
				t.Fatalf("link %d: ExtendCols (sibling): %v", link, err)
			}
			return e
		}
		vecBitsEqual(t, extFast.SolveVec(rhs), sibling().SolveVec(rhs), "chain SolveVec")
		vecBitsEqual(t, extFast.ForwardSolveVecInto(make([]float64, nn), rhs), sibling().ForwardSolveVecInto(make([]float64, nn), rhs), "chain ForwardSolveVecInto")
		vecBitsEqual(t, extFast.BackSolveVec(rhs), sibling().BackSolveVec(rhs), "chain BackSolveVec")
		if math.Float64bits(extFast.LogDet()) != math.Float64bits(extDirect.LogDet()) {
			t.Fatalf("link %d: LogDet differs", link)
		}
		curFast, curDirect = extFast, extDirect
	}

	// The shared prefix belongs to the root: FactorBytes charges it there
	// and nowhere else.
	rootBytes := root.FactorBytes()
	if want := (packedLen(n) + packedLen(n)) * 8; rootBytes != want {
		t.Fatalf("root FactorBytes = %d, want %d", rootBytes, want)
	}
	if got, want := curFast.FactorBytes(), packedLen(curFast.n)*8; got != want {
		t.Fatalf("chain FactorBytes = %d, want %d (inherited prefix must not be double-counted)", got, want)
	}
}

// TestRefactorizeMatchesNew: recycling a factor through Refactorize must
// be indistinguishable — bits, jitter, trigger state — from a fresh
// NewCholesky, across size changes and after the previous life built a
// cache and shared it with a child.
func TestRefactorizeMatchesNew(t *testing.T) {
	rng := newTestRand(81, 19)
	c := &Cholesky{}
	var child *Cholesky
	var childA *Dense
	for round, n := range []int{12, 29, 29, 8} {
		a := randomSPD(rng, n)
		if err := c.Refactorize(a, 0, 0); err != nil {
			t.Fatalf("round %d: Refactorize: %v", round, err)
		}
		fresh, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("round %d: NewCholesky: %v", round, err)
		}
		if c.jitter != fresh.jitter || c.n != fresh.n {
			t.Fatalf("round %d: jitter/size mismatch", round)
		}
		bitsEqual(t, c.L(), fresh.L(), "Refactorize vs NewCholesky")
		if c.HasTransposeCache() {
			t.Fatalf("round %d: Refactorize kept a stale cache", round)
		}
		b := randomVec(rng, n)
		vecBitsEqual(t, c.SolveVec(b), fresh.SolveVec(b), "recycled solve")

		if round == 1 {
			// Build the cache and hand it to a child; later rounds must not
			// disturb the child's snapshot.
			c.SolveVec(b)
			bc := colMajor(randomDense(rng, n, 1))
			cc := spdBlock(rng, 1, float64(n))
			child, err = c.ExtendCols(bc, cc)
			if err != nil {
				t.Fatalf("ExtendCols: %v", err)
			}
			lc := child.L()
			childA = mulRef(lc, transposeRef(lc))
		}
	}
	if child == nil || !child.HasTransposeCache() {
		t.Fatal("child lost its inherited cache after parent Refactorize")
	}
	// The child still solves correctly against its own matrix.
	rhs := randomVec(rng, child.n)
	x := child.SolveVec(rhs)
	back := make([]float64, len(rhs))
	for i := 0; i < child.n; i++ {
		back[i] = Dot(childA.Row(i), x)
	}
	for i := range rhs {
		if math.Abs(back[i]-rhs[i]) > 1e-8 {
			t.Fatalf("child solve after parent recycle: A·x[%d] = %v, want %v", i, back[i], rhs[i])
		}
	}
}

// TestInverseIntoParallelBitIdentity forces InverseInto down its banded
// branch on a small factor and checks it reproduces the serial branch
// byte for byte at GOMAXPROCS 1 and 8. Unlike the banded LML gradient
// there is no reduction here — every wt row and every inv cell is
// computed independently — so banded and serial must agree at every n,
// not just across worker counts.
func TestInverseIntoParallelBitIdentity(t *testing.T) {
	rng := newTestRand(97, 17)
	for _, n := range []int{1, 5, 63, 64, 70, 129} {
		a := randomSPD(rng, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		want := inverse(c) // serial: n < invParallelN

		old := invParallelN
		invParallelN = 1
		for _, procs := range []int{1, 8} {
			oldProcs := runtime.GOMAXPROCS(procs)
			inv := NewDense(n, n, nil)
			wt := NewDense(n, n, nil)
			for i := range inv.data {
				inv.data[i] = math.NaN()
				wt.data[i] = math.Inf(1)
			}
			got := c.InverseInto(inv, wt)
			runtime.GOMAXPROCS(oldProcs)
			bitsEqual(t, got, want, "banded InverseInto vs serial")
		}
		invParallelN = old
	}
}
