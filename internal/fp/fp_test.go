package fp

import (
	"math"
	"testing"
)

func TestZero(t *testing.T) {
	if !Zero(0) || !Zero(math.Copysign(0, -1)) {
		t.Error("Zero should accept both signed zeros")
	}
	if Zero(1e-300) || Zero(math.NaN()) {
		t.Error("Zero accepted a non-zero")
	}
}

func TestExact(t *testing.T) {
	if !Exact(1.5, 1.5) || Exact(1.5, 1.5000001) {
		t.Error("Exact mismatch on plain values")
	}
	if !Exact(0, math.Copysign(0, -1)) {
		t.Error("Exact(-0, +0) = false, want true (IEEE ==)")
	}
	if Exact(math.NaN(), math.NaN()) {
		t.Error("Exact(NaN, NaN) = true, want false")
	}
}
