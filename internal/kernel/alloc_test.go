package kernel

import (
	"testing"

	"repro/internal/fp"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// rowBlock builds n points of dimension d as both a slice-of-rows view
// and the flat row-major block EvalRow consumes.
func rowBlock(stream *rng.Stream, n, d int) ([][]float64, []float64) {
	rows := make([][]float64, n)
	flat := make([]float64, n*d)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d]
		for j := range rows[i] {
			rows[i][j] = stream.Norm()
		}
	}
	return rows, flat
}

// TestEvalRowMatchesEval checks that the batched row kernels are bitwise
// identical to the per-pair entry points they replace: EvalRow vs Eval,
// and EvalRowWithGrad vs Eval + GradX. The golden-trace referee depends
// on this equivalence, so the comparison is exact, not tolerance-based.
func TestEvalRowMatchesEval(t *testing.T) {
	const d, n = 6, 40
	stream := rng.New(11, 3)
	rows, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	for _, k := range kernels(d) {
		// Perturb params so the test is not run at the all-default point.
		p := k.Params(nil)
		for i := range p {
			p[i] += 0.1 * float64(i+1)
		}
		k.SetParams(p)

		dst := make([]float64, n)
		k.EvalRow(dst, x, flat)
		for i := range rows {
			if want := k.Eval(x, rows[i]); !fp.Exact(dst[i], want) {
				t.Fatalf("%s: EvalRow[%d] = %v, Eval = %v", kernelName(k), i, dst[i], want)
			}
		}

		grow := make([]float64, n*d)
		k.EvalRowWithGrad(dst, grow, x, flat)
		gref := make([]float64, d)
		for i := range rows {
			if want := k.Eval(x, rows[i]); !fp.Exact(dst[i], want) {
				t.Fatalf("%s: EvalRowWithGrad value[%d] = %v, Eval = %v", kernelName(k), i, dst[i], want)
			}
			k.GradX(x, rows[i], gref)
			for j := 0; j < d; j++ {
				if got := grow[i*d+j]; !fp.Exact(got, gref[j]) {
					t.Fatalf("%s: EvalRowWithGrad grad[%d][%d] = %v, GradX = %v", kernelName(k), i, j, got, gref[j])
				}
			}
		}
	}
}

// TestEvalRowAllocs pins the batched row kernels at zero allocations per
// call: they sit at the bottom of gp.Predict and gp.PredictWithGrad,
// which the hot-path contract (DESIGN.md §9) holds at zero steady-state
// allocations.
func TestEvalRowAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const d, n = 8, 64
	stream := rng.New(12, 4)
	_, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	dst := make([]float64, n)
	grow := make([]float64, n*d)
	for _, k := range kernels(d) {
		if got := testing.AllocsPerRun(100, func() {
			k.EvalRow(dst, x, flat)
		}); got > 0 {
			t.Fatalf("%s: EvalRow allocates %v times per call, want 0", kernelName(k), got)
		}
		if got := testing.AllocsPerRun(100, func() {
			k.EvalRowWithGrad(dst, grow, x, flat)
		}); got > 0 {
			t.Fatalf("%s: EvalRowWithGrad allocates %v times per call, want 0", kernelName(k), got)
		}
	}
}
