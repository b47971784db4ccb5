package mat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fp"
	"repro/internal/parallel"
)

// ErrNotPositiveDefinite is returned when a matrix cannot be factorized even
// after the maximum jitter has been added to its diagonal.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// packedLen is the number of float64s a packed lower triangle of order n
// holds: n·(n+1)/2.
func packedLen(n int) int { return n * (n + 1) / 2 }

// rowOffset is the start of packed row i: i·(i+1)/2. Row i holds the i+1
// entries L[i][0..i].
func rowOffset(i int) int { return i * (i + 1) / 2 }

// colOffset is the start of packed column k inside a column-major prefix of
// order np: k·np − k·(k−1)/2. Column k holds the np−k entries L[k..np)[k].
func colOffset(k, np int) int { return k*np - k*(k-1)/2 }

// ltPrefix is a packed column-major copy of the leading np×np block of a
// lower-triangular factor: column k occupies data[colOffset(k,np) :
// colOffset(k,np)+np−k] and holds L[k..np)[k]. A prefix is immutable once
// published and position-independent — any factor whose leading np rows
// equal the prefix owner's can consume it, which is what lets a
// Kriging-Believer fantasy chain share the root factor's cache (ExtendCols
// propagates the pointer) instead of paying one O(n²) build per link.
type ltPrefix struct {
	np   int
	data []float64
}

// Cholesky holds a lower-triangular Cholesky factor L with A = L·Lᵀ in
// packed row-major storage: row i occupies l[rowOffset(i) : rowOffset(i)+i+1].
// A factor therefore costs n·(n+1)/2 floats instead of the n² a dense
// triangle wastes half of. The factor owns its storage; the input matrix is
// never modified.
type Cholesky struct {
	n      int
	l      []float64 // packed lower triangle, row-major
	jitter float64   // diagonal jitter that was added to achieve factorization
	// ltp caches Lᵀ packed column-major so the hot solve kernels stream
	// memory contiguously instead of striding down packed rows. It holds
	// the same values — solves read identical floats in an identical order
	// from either layout — and is built lazily on the SECOND solve:
	// factors solved exactly once (hyperparameter-likelihood candidates,
	// fantasy alpha recomputes) keep the direct path and never pay the
	// O(n²) build, while long-lived factors serving many predictions
	// amortize it immediately. A factor extended from a cache-carrying
	// parent instead inherits the parent's prefix (np < n) at
	// construction: its solves read rows < np contiguously from the shared
	// prefix and the few extension rows from packed row storage, and it
	// never builds a cache of its own.
	ltp    atomic.Pointer[ltPrefix]
	ltMu   sync.Mutex // serializes buildTranspose; ltp is the publish point
	solved atomic.Bool
}

// NewCholesky factorizes the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. If the factorization fails, exponentially
// increasing jitter (starting at startJitter, up to maxJitter) is added to
// the diagonal; the jitter actually used is recorded. startJitter <= 0 selects a default relative to the mean diagonal.
func NewCholesky(a *Dense, startJitter, maxJitter float64) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Refactorize(a, startJitter, maxJitter); err != nil {
		return nil, err
	}
	return c, nil
}

// Refactorize runs NewCholesky's factorization into this factor's existing
// storage (growing it on a size change), resetting the solve trigger and
// dropping any transpose cache. It lets a pooled fit workspace reuse one
// Cholesky across many hyperparameter evaluations instead of allocating
// n²/2 floats per objective call. Prefix snapshots previously shared with
// extended children are immutable and remain valid — the children keep
// their pointer; only this factor forgets it. Not safe to call concurrently
// with solves on the same factor.
func (c *Cholesky) Refactorize(a *Dense, startJitter, maxJitter float64) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: cholesky of non-square %d×%d", a.rows, a.cols))
	}
	n := a.rows
	if startJitter <= 0 {
		var meanDiag float64
		for i := 0; i < n; i++ {
			meanDiag += a.At(i, i)
		}
		if n > 0 {
			meanDiag /= float64(n)
		}
		startJitter = 1e-10 * math.Max(meanDiag, 1)
	}
	if maxJitter <= 0 {
		maxJitter = startJitter * 1e8
	}
	c.n = n
	if cap(c.l) < packedLen(n) {
		c.l = make([]float64, packedLen(n))
	}
	c.l = c.l[:packedLen(n)]
	c.ltp.Store(nil)
	c.solved.Store(false)
	jitter := 0.0
	for {
		if c.factorize(a, jitter) {
			c.jitter = jitter
			return nil
		}
		if fp.Zero(jitter) {
			jitter = startJitter
		} else {
			jitter *= 100 // escalate fast: every retry is a full O(n³) pass
		}
		if jitter > maxJitter {
			return ErrNotPositiveDefinite
		}
	}
}

// factorize attempts a Cholesky of a + jitter·I into the packed rows of
// c.l, returning false on a non-positive pivot. Every packed entry is
// written, so no zeroing pass is needed. The accumulation order per entry
// (increasing k, division or sqrt last) is the textbook DAG the dense
// implementation evaluated — the packed layout changes addresses, not
// arithmetic.
func (c *Cholesky) factorize(a *Dense, jitter float64) bool {
	n := c.n
	l := c.l
	for i := 0; i < n; i++ {
		ioff := rowOffset(i)
		lrow := l[ioff : ioff+i]
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			joff := rowOffset(j)
			ljrow := l[joff : joff+j]
			for k, v := range ljrow {
				sum -= lrow[k] * v
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				l[ioff+j] = math.Sqrt(sum)
			} else {
				l[ioff+j] = sum / l[joff+j]
			}
		}
	}
	return true
}

// L materializes the lower-triangular factor as a freshly allocated dense
// matrix with a zero strict upper triangle. The factor's own storage is
// packed, so the result does not alias it and may be modified freely.
func (c *Cholesky) L() *Dense {
	n := c.n
	d := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		off := rowOffset(i)
		copy(d.Row(i)[:i+1], c.l[off:off+i+1])
	}
	return d
}

// HasTransposeCache reports whether the factor currently holds a
// transpose cache — built locally or inherited from a parent through
// ExtendCols. Read-only: it never triggers a build and never advances the
// fast-path trigger.
func (c *Cholesky) HasTransposeCache() bool { return c.ltp.Load() != nil }

// SharesTransposeCache reports whether c and other hold the same cache
// object — true exactly when one inherited the other's prefix through
// ExtendCols, or both inherited a common ancestor's. Read-only.
func (c *Cholesky) SharesTransposeCache(other *Cholesky) bool {
	p := c.ltp.Load()
	return p != nil && p == other.ltp.Load()
}

// FactorBytes reports the float64 storage this factor owns in bytes: the
// packed lower triangle plus the transpose-cache prefix when built locally.
// An inherited prefix (np < n) is owned by — and counted against — the
// ancestor that built it.
func (c *Cholesky) FactorBytes() int {
	b := len(c.l) * 8
	if p := c.ltp.Load(); p != nil && p.np == c.n {
		b += len(p.data) * 8
	}
	return b
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[rowOffset(i)+i])
	}
	return 2 * s
}

// SolveVec solves A·x = b and returns x in a fresh vector.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, len(b)), b)
}

// SolveVecInto solves A·x = b into dst (length n) and returns dst. dst may
// alias b; b itself is left untouched otherwise.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: cholesky solve length %d != %d", len(b), c.n))
	}
	if len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky solve dst length %d != %d", len(dst), c.n))
	}
	if c.useFast() {
		copy(dst, b)
		c.forwardSolve(dst)
		c.backSolve(dst)
	} else {
		copy(dst, b)
		c.forwardSolveDirect(dst)
		c.backSolveDirect(dst)
	}
	return dst
}

// ForwardSolveVecInto solves L·y = b into dst (length n) and returns dst.
// dst may alias b.
func (c *Cholesky) ForwardSolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: cholesky forward solve length %d != %d", len(b), c.n))
	}
	if len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky forward solve dst length %d != %d", len(dst), c.n))
	}
	copy(dst, b)
	if c.useFast() {
		c.forwardSolve(dst)
	} else {
		c.forwardSolveDirect(dst)
	}
	return dst
}

// BackSolveVec solves Lᵀ·x = b in a fresh vector.
func (c *Cholesky) BackSolveVec(b []float64) []float64 {
	return c.BackSolveVecInto(make([]float64, len(b)), b)
}

// BackSolveVecInto solves Lᵀ·x = b into dst (length n) and returns dst.
// dst may alias b.
func (c *Cholesky) BackSolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: cholesky back solve length %d != %d", len(b), c.n))
	}
	if len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky back solve dst length %d != %d", len(dst), c.n))
	}
	copy(dst, b)
	if c.useFast() {
		c.backSolve(dst)
	} else {
		c.backSolveDirect(dst)
	}
	return dst
}

// useFast reports whether this solve should run on the transposed
// layout, building it on first use. A factor carrying an inherited prefix
// uses the fast path from its very first solve — the cache already exists,
// its parent paid for it. Otherwise the first solve against a factor
// returns false (direct layout, no build) and every later solve returns
// true. Both layouts execute the identical floating-point operation
// sequence, so the answer only affects speed, never bits — which also
// makes the benign race between concurrent first solves harmless.
//
// useFast is a STATE MUTATION, not a query: every call advances the
// fast-path trigger by marking the factor as solved. Callers that merely
// want to know which path a multi-solve operation should take — or that
// hold a factor for read-only inspection — must use pathFast instead, or
// they will force the O(n²) transpose build onto factors the trigger was
// designed to spare.
func (c *Cholesky) useFast() bool {
	if c.ltp.Load() != nil {
		return true
	}
	if c.solved.Load() {
		c.buildTranspose()
		return true
	}
	c.solved.Store(true)
	return false
}

// pathFast reports which solve kernels a multi-column operation
// (ExtendCols) should use, without advancing the fast-path trigger. A fresh
// factor runs every column on the direct layout and leaves the transpose
// cache unbuilt — preserving the "single-solve factors never pay the
// build" invariant even when one extension spans many columns — while a
// factor that has already served at least one solve (or inherited its
// parent's cache) gets the cached layout, building it if needed: this is
// at least its second use. Both paths produce identical bits, so the
// choice only affects speed.
func (c *Cholesky) pathFast() bool {
	if c.ltp.Load() != nil {
		return true
	}
	if c.solved.Load() {
		c.buildTranspose()
		return true
	}
	return false
}

// buildTranspose fills and publishes the packed column-major copy of Lᵀ
// covering the whole factor (np = n). Reached only through useFast and
// pathFast once the factor has served a solve; the mutex makes the build
// once-only and the atomic store publishes the finished prefix (readers
// that load a non-nil pointer see fully written data). The copy runs over
// square tiles so that neither side of the transpose strides a full row
// per element.
func (c *Cholesky) buildTranspose() {
	c.ltMu.Lock()
	defer c.ltMu.Unlock()
	if c.ltp.Load() != nil {
		return
	}
	n := c.n
	p := &ltPrefix{np: n, data: make([]float64, packedLen(n))}
	l := c.l
	lt := p.data
	const tile = 32
	for ib := 0; ib < n; ib += tile {
		imax := min(ib+tile, n)
		// Only tiles touching the lower triangle (jb <= ib) hold data.
		for jb := 0; jb <= ib; jb += tile {
			jmax := min(jb+tile, n)
			for i := ib; i < imax; i++ {
				off := rowOffset(i)
				row := l[off+jb : off+min(jmax, i+1)]
				for jo, v := range row {
					j := jb + jo
					lt[colOffset(j, n)+i-j] = v
				}
			}
		}
	}
	c.ltp.Store(p)
}

// forwardSolve and backSolve sit at the bottom of every posterior
// prediction, so both are written to let the compiler prove the inner
// loops in-bounds: the column and right-hand-side slices are re-sliced to
// a common length before the loop, which removes per-iteration bounds
// checks without touching the floating-point evaluation order (the
// accumulation remains strictly sequential — required for the bitwise
// reproducibility contract, see the golden-trace tests).
//
// Both kernels consume a prefix of order np ≤ n: rows below np stream
// contiguously from the packed column-major cache, rows np..n−1 (the
// extension rows of a factor that inherited its parent's cache) are read
// from packed row storage. np = n for a self-built cache, making the
// extension loops empty. Per element the updates still arrive in strictly
// increasing k with the division at the same point, so the mixed layout
// evaluates the exact DAG of the direct kernels.

// forwardSolve uses the right-looking (axpy) form of forward
// substitution: once y[k] is final it is scattered into every later
// element. Each y[i] still accumulates −L[i][k]·y[k] in strictly
// increasing k with the division at the same point, so the operation DAG
// — and therefore every output bit — is identical to the textbook
// dot-product form; but the inner loop carries no dependency chain, so
// it runs at memory/issue throughput instead of FP-subtract latency.
// Column k of L is packed column k of the cached prefix, keeping the
// scatter contiguous.
func (c *Cholesky) forwardSolve(y []float64) {
	n := c.n
	p := c.ltp.Load()
	np := p.np
	lt := p.data
	l := c.l
	y = y[:n]
	k := 0
	// Four columns per sweep: each tail element is loaded and stored once
	// for all four updates. The subtractions land in increasing-k order,
	// exactly as a column-at-a-time sweep would apply them; only the
	// memory traffic is batched, not the arithmetic.
	for ; k+4 <= np; k += 4 {
		off0 := colOffset(k, np)
		off1 := off0 + (np - k)
		off2 := off1 + (np - k - 1)
		off3 := off2 + (np - k - 2)
		// Solve the 4×4 triangular corner sequentially.
		yk0 := y[k] / lt[off0]
		y[k] = yk0
		yk1 := (y[k+1] - lt[off0+1]*yk0) / lt[off1]
		y[k+1] = yk1
		yk2 := ((y[k+2] - lt[off0+2]*yk0) - lt[off1+1]*yk1) / lt[off2]
		y[k+2] = yk2
		yk3 := (((y[k+3] - lt[off0+3]*yk0) - lt[off1+2]*yk1) - lt[off2+1]*yk2) / lt[off3]
		y[k+3] = yk3
		col0 := lt[off0+4 : off0+np-k]
		col1 := lt[off1+3 : off1+np-k-1]
		col2 := lt[off2+2 : off2+np-k-2]
		col3 := lt[off3+1 : off3+np-k-3]
		tail := y[k+4 : np]
		tail = tail[:len(col0)]
		col1 = col1[:len(col0)]
		col2 = col2[:len(col0)]
		col3 = col3[:len(col0)]
		for i, c0 := range col0 {
			t := tail[i] - c0*yk0
			t -= col1[i] * yk1
			t -= col2[i] * yk2
			tail[i] = t - col3[i]*yk3
		}
		// Extension rows read the four columns from packed row storage.
		for i := np; i < n; i++ {
			row := l[rowOffset(i)+k:]
			t := y[i] - row[0]*yk0
			t -= row[1] * yk1
			t -= row[2] * yk2
			y[i] = t - row[3]*yk3
		}
	}
	for ; k < np; k++ {
		off := colOffset(k, np)
		yk := y[k] / lt[off]
		y[k] = yk
		col := lt[off+1 : off+np-k]
		tail := y[k+1 : np]
		tail = tail[:len(col)]
		for i, ck := range col {
			tail[i] -= ck * yk
		}
		for i := np; i < n; i++ {
			y[i] -= l[rowOffset(i)+k] * yk
		}
	}
	for ; k < n; k++ {
		yk := y[k] / l[rowOffset(k)+k]
		y[k] = yk
		for i := k + 1; i < n; i++ {
			y[i] -= l[rowOffset(i)+k] * yk
		}
	}
}

func (c *Cholesky) backSolve(y []float64) {
	n := c.n
	p := c.ltp.Load()
	np := p.np
	lt := p.data
	l := c.l
	y = y[:n]
	for i := n - 1; i >= np; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[rowOffset(k)+i] * y[k]
		}
		y[i] = s / l[rowOffset(i)+i]
	}
	for i := np - 1; i >= 0; i-- {
		off := colOffset(i, np)
		col := lt[off+1 : off+np-i] // L[k][i] for k = i+1 … np-1
		yk := y[i+1 : np]
		s := y[i]
		for k, rk := range col {
			s -= rk * yk[k]
		}
		for k := np; k < n; k++ {
			s -= l[rowOffset(k)+i] * y[k]
		}
		y[i] = s / lt[off]
	}
}

// forwardSolveDirect is the left-looking (dot-product) form operating on
// the factor's native packed row-major layout — no transpose cache
// required, and every row it reads is contiguous. It evaluates the same
// operation DAG as forwardSolve: each y[i] subtracts L[i][k]·y[k] in
// increasing k, then divides.
func (c *Cholesky) forwardSolveDirect(y []float64) {
	n := c.n
	l := c.l
	y = y[:n]
	for i := 0; i < n; i++ {
		off := rowOffset(i)
		row := l[off : off+i]
		yi := y[:i]
		s := y[i]
		for k, rk := range row {
			s -= rk * yi[k]
		}
		y[i] = s / l[off+i]
	}
}

// backSolveDirect is the transpose-free back substitution, striding down
// packed columns of the native layout. Identical operation sequence to
// backSolve.
func (c *Cholesky) backSolveDirect(y []float64) {
	n := c.n
	l := c.l
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[rowOffset(k)+i] * y[k]
		}
		y[i] = s / l[rowOffset(i)+i]
	}
}

// invParallelN is the factor order at or above which InverseInto splits
// its two phases over deterministic row bands (invRowBand rows each) via
// parallel.ForEachBand. Unlike the banded LML gradient there is no
// reduction to reassociate here: every wt row is a self-contained
// triangular solve and every inv cell a single dot product, so the
// banded result is bitwise-identical to the serial one at every n and
// every GOMAXPROCS — the threshold only avoids dispatch overhead on
// small factors. A package variable (not a const) so tests can force the
// banded branch onto small fixtures.
var invParallelN = 512

// invRowBand is the row-band width of the parallel inverse split.
const invRowBand = 64

// InverseInto computes A⁻¹ into inv, using wt as scratch for L⁻ᵀ; both
// must be n×n, and inv is returned. Every cell either matrix contributes
// is overwritten before it is read, so neither needs to be zeroed —
// pooled fit workspaces hand in dirty scratch. This is an O(n³)
// operation; prefer the solve methods when only products with A⁻¹ are
// needed. Above invParallelN both phases run over parallel row bands with
// bitwise-identical results (TestInverseIntoParallelBitIdentity).
func (c *Cholesky) InverseInto(inv, wt *Dense) *Dense {
	n := c.n
	if inv.rows != n || inv.cols != n {
		panic(fmt.Sprintf("mat: cholesky inverse dst %d×%d != %d", inv.rows, inv.cols, n))
	}
	if wt.rows != n || wt.cols != n {
		panic(fmt.Sprintf("mat: cholesky inverse scratch %d×%d != %d", wt.rows, wt.cols, n))
	}
	if n >= invParallelN {
		workers := runtime.GOMAXPROCS(0)
		if err := parallel.ForEachBand(context.Background(), workers, n, invRowBand, func(lo, hi int) {
			c.invTransposeRows(wt, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
		if err := parallel.ForEachBand(context.Background(), workers, n, invRowBand, func(lo, hi int) {
			c.invProductRows(inv, wt, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
	} else {
		c.invTransposeRows(wt, 0, n)
		c.invProductRows(inv, wt, 0, n)
	}
	return inv
}

// invTransposeRows fills rows [lo, hi) of wt with L⁻ᵀ: row i of wt is
// column i of L⁻¹, kept contiguous so both phases stream memory
// linearly. Each row is a self-contained triangular solve reading only
// the factor and its own entries, so rows split freely across bands.
func (c *Cholesky) invTransposeRows(wt *Dense, lo, hi int) {
	n := c.n
	l := c.l
	for i := lo; i < hi; i++ {
		wrow := wt.Row(i)
		wrow[i] = 1 / l[rowOffset(i)+i]
		for k := i + 1; k < n; k++ {
			koff := rowOffset(k)
			lrow := l[koff : koff+k]
			var s float64
			for j := i; j < k; j++ {
				s -= lrow[j] * wrow[j]
			}
			wrow[k] = s / l[koff+k]
		}
	}
}

// invProductRows fills the symmetric product for rows i in [lo, hi):
//
//	A⁻¹[i][j] = Σ_{k>=max(i,j)} L⁻¹[k][i]·L⁻¹[k][j]
//	          = dot(wt.Row(i)[i:], wt.Row(j)[i:]) for j <= i.
//
// Band (lo, hi) owns every (i, j≤i) pair with i in range, including the
// mirror cell inv[j][i]: each memory cell is written by exactly one
// band, so bands race on nothing and the filled matrix is independent of
// the partition.
func (c *Cholesky) invProductRows(inv, wt *Dense, lo, hi int) {
	n := c.n
	for i := lo; i < hi; i++ {
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
}

// ExtendCols returns a new Cholesky of the (n+m)×(n+m) matrix
//
//	[ A   B ]
//	[ Bᵀ  C ]
//
// given the factor of A, the n×m cross block B as a flat column-major
// slice (column j of B occupies bcols[j*n : (j+1)*n]) and the m×m block
// C. A k★ vector from a fantasy update is exactly one such column. It
// costs O(n²m + m³) instead of O((n+m)³), which makes Kriging-Believer
// fantasy updates cheap; the same jitter escalation as NewCholesky is
// applied to the new diagonal block if needed. bcols is left unmodified.
//
// The forward solve path is chosen once up front via pathFast: a fresh
// factor runs every column on the direct layout without building the
// transpose cache or advancing the fast-path trigger, so extending a
// single-solve parent never pays the O(n²) build — both paths produce
// identical bits.
//
// When the parent does hold a transpose cache, the child inherits it: the
// packed column-major prefix covers exactly the leading parent rows the
// child's packed rows replicate, so the child solves on the fast path
// from birth and a Kriging-Believer fantasy chain of any length shares
// the single root cache build instead of paying one per link.
func (c *Cholesky) ExtendCols(bcols []float64, cc *Dense) (*Cholesky, error) {
	n, m := c.n, cc.rows
	if cc.cols != m {
		panic(fmt.Sprintf("mat: extend C block %d×%d not square", cc.rows, cc.cols))
	}
	if len(bcols) != n*m {
		panic(fmt.Sprintf("mat: extend column block length %d != n %d × m %d", len(bcols), n, m))
	}
	// w row j holds column j of B and is overwritten in place with the
	// solved row of W = L⁻¹B.
	w := NewDense(m, n, nil)
	copy(w.data, bcols)
	nm := n + m
	out := &Cholesky{n: nm, l: make([]float64, packedLen(nm))}
	// The packed row-major layout is prefix-closed: rows 0..n−1 of the
	// extended factor are one contiguous copy.
	copy(out.l[:packedLen(n)], c.l)
	// Off-diagonal block: solve L·w_j = B[:,j] in place for each column.
	fast := c.pathFast()
	for j := 0; j < m; j++ {
		row := w.Row(j)
		if fast {
			c.forwardSolve(row)
		} else {
			c.forwardSolveDirect(row)
		}
		copy(out.l[rowOffset(n+j):rowOffset(n+j)+n], row)
	}
	// Schur complement S = C − W·Wᵀ, then factorize it into the new corner.
	s := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := cc.At(i, j) - Dot(w.Row(i), w.Row(j))
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	sc, err := NewCholesky(s, 0, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		soff := rowOffset(i)
		copy(out.l[rowOffset(n+i)+n:rowOffset(n+i)+n+i+1], sc.l[soff:soff+i+1])
	}
	out.jitter = math.Max(c.jitter, sc.jitter)
	if fast {
		// pathFast guaranteed the parent's cache exists; share it. The
		// prefix is immutable, so the child (and its own children, which
		// propagate the same pointer) reads it without synchronization.
		out.ltp.Store(c.ltp.Load())
	}
	return out, nil
}

// CholeskyFromLower wraps an explicitly supplied lower-triangular factor
// L as the Cholesky of A = L·Lᵀ, skipping the O(n³) factorization. The
// strict upper triangle of l is ignored; every diagonal entry must be
// strictly positive and finite, or ErrNotPositiveDefinite is returned.
// Intended for factors restored from storage and for constructing large
// synthetic models in tests and benchmarks.
func CholeskyFromLower(l *Dense) (*Cholesky, error) {
	if l.rows != l.cols {
		panic(fmt.Sprintf("mat: cholesky factor of non-square %d×%d", l.rows, l.cols))
	}
	n := l.rows
	c := &Cholesky{n: n, l: make([]float64, packedLen(n))}
	for i := 0; i < n; i++ {
		d := l.data[i*n+i]
		if !(d > 0) || math.IsInf(d, 1) {
			return nil, ErrNotPositiveDefinite
		}
		off := rowOffset(i)
		copy(c.l[off:off+i+1], l.Row(i)[:i+1])
	}
	return c, nil
}
