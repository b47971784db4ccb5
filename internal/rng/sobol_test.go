package rng

import (
	"math"
	"testing"
)

func TestSobolFirstDimensionVanDerCorput(t *testing.T) {
	s := NewSobol(1)
	want := []float64{0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125}
	for i, w := range want {
		got := s.Next(nil)[0]
		if got != w {
			t.Fatalf("point %d = %v, want %v", i, got, w)
		}
	}
}

func TestSobolRange(t *testing.T) {
	s := NewSobol(16)
	for i := 0; i < 1024; i++ {
		p := s.Next(nil)
		for j, v := range p {
			if v < 0 || v >= 1 {
				t.Fatalf("point %d dim %d out of range: %v", i, j, v)
			}
		}
	}
}

// Each dimension of the first 2^k points must be a (0,k)-net in base 2:
// every dyadic interval [i/2^k, (i+1)/2^k) contains exactly one point.
func TestSobolOneDimensionalNets(t *testing.T) {
	const k = 6
	n := 1 << k
	s := NewSobol(12)
	pts := s.Sample(n)
	for j := 0; j < 12; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			cell := int(pts[i][j] * float64(n))
			if seen[cell] {
				t.Fatalf("dim %d: cell %d hit twice in first %d points", j, cell, n)
			}
			seen[cell] = true
		}
	}
}

func TestSobolDistinctDimensions(t *testing.T) {
	s := NewSobol(8)
	pts := s.Sample(64)
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			same := true
			for i := 1; i < 64; i++ { // skip origin
				if pts[i][a] != pts[i][b] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("dimensions %d and %d are identical", a, b)
			}
		}
	}
}

func TestSobolDeterminism(t *testing.T) {
	a := NewSobol(5)
	b := NewSobol(5)
	for i := 0; i < 100; i++ {
		pa, pb := a.Next(nil), b.Next(nil)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatal("sobol not deterministic")
			}
		}
	}
}

func TestScrambledSobolShiftPreservesNet(t *testing.T) {
	// A digital shift preserves the one-dimensional net property.
	const k = 5
	n := 1 << k
	s := NewScrambledSobol(4, New(1, 1))
	pts := s.Sample(n)
	for j := 0; j < 4; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			cell := int(pts[i][j] * float64(n))
			if seen[cell] {
				t.Fatalf("shifted dim %d: cell %d hit twice", j, cell)
			}
			seen[cell] = true
		}
	}
}

func TestScrambledSobolDiffersByStream(t *testing.T) {
	a := NewScrambledSobol(3, New(1, 1))
	b := NewScrambledSobol(3, New(1, 2))
	pa, pb := a.Next(nil), b.Next(nil)
	diff := false
	for j := range pa {
		if pa[j] != pb[j] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different streams produced identical shifts")
	}
}

func TestSobolNormalMoments(t *testing.T) {
	pts := SobolNormal(4096, 6, New(2, 2))
	for j := 0; j < 6; j++ {
		var sum, sumsq float64
		for _, p := range pts {
			sum += p[j]
			sumsq += p[j] * p[j]
		}
		mean := sum / float64(len(pts))
		variance := sumsq/float64(len(pts)) - mean*mean
		if math.Abs(mean) > 0.02 {
			t.Fatalf("dim %d: qMC normal mean %v", j, mean)
		}
		if math.Abs(variance-1) > 0.05 {
			t.Fatalf("dim %d: qMC normal variance %v", j, variance)
		}
	}
}

func TestSobolBadDims(t *testing.T) {
	for _, d := range []int{0, -1, 129} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for dim %d", d)
				}
			}()
			NewSobol(d)
		}()
	}
}

// Star discrepancy proxy: Sobol should fill space much more evenly than
// i.i.d. uniform. Compare max deviation of empirical box counts.
func TestSobolBeatsUniformDiscrepancy(t *testing.T) {
	const n = 512
	sob := NewSobol(2).Sample(n)
	uni := UniformDesign(n, []float64{0, 0}, []float64{1, 1}, New(9, 9))
	disc := func(pts [][]float64) float64 {
		var worst float64
		for _, gx := range []float64{0.25, 0.5, 0.75, 1} {
			for _, gy := range []float64{0.25, 0.5, 0.75, 1} {
				count := 0
				for _, p := range pts {
					if p[0] < gx && p[1] < gy {
						count++
					}
				}
				dev := math.Abs(float64(count)/n - gx*gy)
				if dev > worst {
					worst = dev
				}
			}
		}
		return worst
	}
	if ds, du := disc(sob), disc(uni); ds >= du {
		t.Fatalf("sobol discrepancy %v not better than uniform %v", ds, du)
	}
}

func TestPrimitivePolynomials(t *testing.T) {
	polys := primitivePolynomials(20)
	if len(polys) != 20 {
		t.Fatalf("got %d polynomials", len(polys))
	}
	// Known counts of primitive polynomials per degree: 1,1,2,2,6,6,...
	degCount := map[int]int{}
	for _, p := range polys {
		degCount[p.degree]++
		if !isPrimitive(p.mask, p.degree) {
			t.Fatalf("polynomial %b of degree %d reported non-primitive", p.mask, p.degree)
		}
	}
	if degCount[1] != 1 || degCount[2] != 1 || degCount[3] != 2 || degCount[4] != 2 || degCount[5] != 6 {
		t.Fatalf("primitive polynomial counts wrong: %v", degCount)
	}
}

func TestIsPrimitiveKnownCases(t *testing.T) {
	// x^2+x+1 is primitive; x^4+x^3+x^2+x+1 is irreducible but NOT primitive
	// (order 5 != 15); x^2+1 = (x+1)^2 is reducible.
	if !isPrimitive(0b111, 2) {
		t.Fatal("x^2+x+1 should be primitive")
	}
	if isPrimitive(0b11111, 4) {
		t.Fatal("x^4+x^3+x^2+x+1 should not be primitive")
	}
	if isPrimitive(0b101, 2) {
		t.Fatal("x^2+1 should not be primitive")
	}
}

func TestPrimeFactors(t *testing.T) {
	got := primeFactors(255)
	want := []uint64{3, 5, 17}
	if len(got) != len(want) {
		t.Fatalf("factors(255) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("factors(255) = %v", got)
		}
	}
}
