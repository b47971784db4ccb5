package kernel

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestEvalRowAutoBitIdentity fills a block two rows past the parallel
// threshold and checks the parallel split reproduces the serial bytes at
// GOMAXPROCS=1 (ForEach collapses to the inline loop) and GOMAXPROCS=8
// (real worker goroutines): the chunk partition depends only on the row
// count and every chunk writes a disjoint destination range, so the
// bits must match exactly either way.
func TestEvalRowAutoBitIdentity(t *testing.T) {
	const d = 3
	const n = ParallelRowThreshold + 2*parallelRowChunk + 137
	stream := rng.New(29, 1)
	_, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)

	for _, k := range kernels(d) {
		want := make([]float64, n)
		k.EvalRow(want, x, flat)
		wantG := make([]float64, n*d)
		wantV := make([]float64, n)
		k.EvalRowWithGrad(wantV, wantG, x, flat)

		for _, procs := range []int{1, 8} {
			old := runtime.GOMAXPROCS(procs)
			got := make([]float64, n)
			EvalRowAuto(k, got, x, flat)
			gotG := make([]float64, n*d)
			gotV := make([]float64, n)
			EvalRowWithGradAuto(k, gotV, gotG, x, flat)
			runtime.GOMAXPROCS(old)

			vecBitsEqual(t, got, want, kernelName(k)+": EvalRowAuto values")
			vecBitsEqual(t, gotV, wantV, kernelName(k)+": EvalRowWithGradAuto values")
			vecBitsEqual(t, gotG, wantG, kernelName(k)+": EvalRowWithGradAuto gradients")
		}
	}
}

// TestEvalRowAutoBelowThreshold: under the threshold the Auto entry
// points are the serial calls, verbatim.
func TestEvalRowAutoBelowThreshold(t *testing.T) {
	const d, n = 3, 50
	stream := rng.New(31, 2)
	_, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	k := kernels(d)[0]

	want := make([]float64, n)
	k.EvalRow(want, x, flat)
	got := make([]float64, n)
	EvalRowAuto(k, got, x, flat)
	vecBitsEqual(t, got, want, "below-threshold values")

	wantG := make([]float64, n*d)
	wantV := make([]float64, n)
	k.EvalRowWithGrad(wantV, wantG, x, flat)
	gotG := make([]float64, n*d)
	gotV := make([]float64, n)
	EvalRowWithGradAuto(k, gotV, gotG, x, flat)
	vecBitsEqual(t, gotV, wantV, "below-threshold grad values")
	vecBitsEqual(t, gotG, wantG, "below-threshold gradients")
}

func vecBitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}
