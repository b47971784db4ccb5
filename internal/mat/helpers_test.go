package mat

import (
	"math"
	//lint:ignore norand in-package mat tests cannot import repro/internal/rng (rng depends on mat); the raw PCG here is still fixed-seed deterministic
	"math/rand/v2"
	"testing"

	"repro/internal/fp"
)

// testRand is the fixed-seed PCG stream the in-package tests draw from.
// This file holds the package's only math/rand/v2 import (and its norand
// waiver); sibling test files name the stream through this alias.
type testRand = rand.Rand

// newTestRand returns a fixed-seed PCG stream.
func newTestRand(seed1, seed2 uint64) *testRand { return rand.New(rand.NewPCG(seed1, seed2)) }

// mulRef returns a·b by the plain ikj loop with exact-zero multipliers
// skipped, the reference product the tests build SPD inputs and
// reconstructions from.
func mulRef(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: mulRef dimension mismatch")
	}
	dst := NewDense(a.rows, b.cols, nil)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for k, aik := range arow {
			if fp.Zero(aik) {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += aik * bv
			}
		}
	}
	return dst
}

// transposeRef returns a newly allocated transpose of m.
func transposeRef(m *Dense) *Dense {
	t := NewDense(m.cols, m.rows, nil)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// mulVecRef returns a·x, one row dot product per element.
func mulVecRef(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := range out {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// inverse returns A⁻¹ through InverseInto with fresh buffers.
func inverse(c *Cholesky) *Dense {
	return c.InverseInto(NewDense(c.n, c.n, nil), NewDense(c.n, c.n, nil))
}

// colMajor flattens b column by column, the layout ExtendCols takes its
// cross block in.
func colMajor(b *Dense) []float64 {
	out := make([]float64, 0, b.rows*b.cols)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			out = append(out, b.At(i, j))
		}
	}
	return out
}

func bitsEqual(t *testing.T, got, want *Dense, label string) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: length %d != %d", label, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)",
				label, i, math.Float64bits(g[i]), g[i], math.Float64bits(w[i]), w[i])
		}
	}
}
