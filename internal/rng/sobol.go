package rng

import (
	"fmt"
	"math"
)

// Sobol generates a Sobol' low-discrepancy sequence in [0,1)^d. Direction
// numbers are constructed programmatically: primitive polynomials over GF(2)
// are enumerated in order of degree, and the free initial direction numbers
// m_1..m_s are drawn deterministically from a fixed splitmix stream subject
// to the validity constraints (m_i odd, m_i < 2^i). This yields a fully
// valid (t,d)-sequence in base 2 without embedding a large table; its
// two-dimensional projections are not Joe–Kuo-optimised, which is
// immaterial for BO initial designs and quasi-MC base samples.
//
// An optional random digital shift (Cranley–Patterson in base 2) decorrelates
// replicated designs while preserving the net structure.
type Sobol struct {
	dim   int
	count uint32
	v     [][]uint32 // v[j][k]: direction number k (scaled by 2^32) for dim j
	x     []uint32   // current Gray-code state
	shift []uint32   // digital shift per dimension (0 = unshifted)
}

const sobolBits = 32

// NewSobol returns an unshifted Sobol sequence of the given dimension.
// Dimension must be in [1, 128].
func NewSobol(dim int) *Sobol {
	if dim < 1 || dim > 128 {
		panic(fmt.Sprintf("rng: sobol dimension %d out of range [1,128]", dim))
	}
	s := &Sobol{
		dim:   dim,
		v:     directionNumbers(dim),
		x:     make([]uint32, dim),
		shift: make([]uint32, dim),
	}
	return s
}

// NewScrambledSobol returns a Sobol sequence with a random digital shift
// drawn from the stream.
func NewScrambledSobol(dim int, stream *Stream) *Sobol {
	s := NewSobol(dim)
	for j := range s.shift {
		s.shift[j] = uint32(stream.Uint64())
	}
	return s
}

// Next appends the next point of the sequence to dst (allocating if dst is
// nil) and returns it. Points lie in [0,1)^d.
func (s *Sobol) Next(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, s.dim)
	}
	if len(dst) != s.dim {
		panic(fmt.Sprintf("rng: sobol dst length %d != dim %d", len(dst), s.dim))
	}
	// Index 0 is the origin; with a digital shift it is still a valid point.
	if s.count > 0 {
		c := trailingZeros32(s.count)
		for j := 0; j < s.dim; j++ {
			s.x[j] ^= s.v[j][c]
		}
	}
	s.count++
	const scale = 1.0 / (1 << sobolBits)
	for j := 0; j < s.dim; j++ {
		dst[j] = float64(s.x[j]^s.shift[j]) * scale
	}
	return dst
}

// Sample returns the next n points as an n×d slice of rows.
func (s *Sobol) Sample(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = s.Next(nil)
	}
	return out
}

func trailingZeros32(x uint32) int {
	if x == 0 {
		return 32
	}
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// SobolNormal returns an n×d matrix of quasi-MC standard normal samples,
// obtained by mapping a (shifted) Sobol sequence through the normal inverse
// CDF. The first unshifted point (the origin) would map to -inf, so a
// digital shift is mandatory and drawn from the stream.
func SobolNormal(n, d int, stream *Stream) [][]float64 {
	s := NewScrambledSobol(d, stream)
	out := s.Sample(n)
	for _, row := range out {
		for j, u := range row {
			if u <= 0 {
				u = 0.5 / float64(uint64(1)<<sobolBits)
			}
			row[j] = NormICDF(u)
			if math.IsInf(row[j], 0) {
				row[j] = 0
			}
		}
	}
	return out
}

// --- direction number construction -----------------------------------------

// directionNumbers builds 32 direction numbers for each of dim dimensions.
func directionNumbers(dim int) [][]uint32 {
	v := make([][]uint32, dim)
	// Dimension 0 is the van der Corput sequence: v_k = 2^(31-k).
	v[0] = make([]uint32, sobolBits)
	for k := 0; k < sobolBits; k++ {
		v[0][k] = 1 << (31 - k)
	}
	if dim == 1 {
		return v
	}
	polys := primitivePolynomials(dim - 1)
	ms := New(20220446, 12) // fixed stream: direction numbers are part of the spec
	for j := 1; j < dim; j++ {
		p := polys[j-1]
		s := p.degree
		a := p.coeffs // interior coefficient bits a_1..a_{s-1}
		m := make([]uint32, sobolBits)
		for i := 0; i < s && i < sobolBits; i++ {
			// m_i: odd, < 2^(i+1). Drawn deterministically.
			m[i] = uint32(ms.Uint64())%(1<<uint(i+1)) | 1
		}
		// Recurrence: m_i = 2a_1 m_{i-1} ^ 4a_2 m_{i-2} ^ ... ^ 2^s m_{i-s} ^ m_{i-s}
		for i := s; i < sobolBits; i++ {
			mi := m[i-s] ^ (m[i-s] << uint(s))
			for k := 1; k < s; k++ {
				if a>>(uint(s)-1-uint(k))&1 == 1 {
					mi ^= m[i-k] << uint(k)
				}
			}
			m[i] = mi
		}
		vj := make([]uint32, sobolBits)
		for k := 0; k < sobolBits; k++ {
			vj[k] = m[k] << (31 - uint(k))
		}
		v[j] = vj
	}
	return v
}

// poly represents a primitive polynomial over GF(2) of the given degree;
// coeffs holds the interior coefficients a_1..a_{s-1} packed into an int in
// the Joe–Kuo convention (bit s-1-k holds a_k). The full polynomial bitmask
// is x^s + Σ a_k x^{s-k} + 1.
type poly struct {
	degree int
	coeffs uint32
	mask   uint32 // full coefficient bitmask, bit i = coefficient of x^i
}

// primitivePolynomials enumerates the first n primitive polynomials over
// GF(2) in order of increasing degree (then increasing coefficient value).
func primitivePolynomials(n int) []poly {
	out := make([]poly, 0, n)
	for deg := 1; len(out) < n; deg++ {
		if deg > 20 {
			panic("rng: dimension too large for primitive polynomial search")
		}
		// Candidates: x^deg + ... + 1 (constant term must be 1).
		hi := uint32(1) << uint(deg)
		for interior := uint32(0); interior < hi>>1 && len(out) < n; interior++ {
			mask := hi | interior<<1 | 1
			if deg == 1 {
				mask = hi | 1 // x + 1
			}
			if isPrimitive(mask, deg) {
				out = append(out, poly{degree: deg, coeffs: interior, mask: mask})
			}
			if deg == 1 {
				break
			}
		}
	}
	return out
}

// gf2MulMod multiplies polynomials a and b over GF(2) modulo mod (degree
// deg).
func gf2MulMod(a, b, mod uint32, deg int) uint32 {
	var r uint32
	for b != 0 {
		if b&1 == 1 {
			r ^= a
		}
		b >>= 1
		a <<= 1
		if a&(1<<uint(deg)) != 0 {
			a ^= mod
		}
	}
	return r
}

// gf2PowMod computes x^e mod the polynomial mod of degree deg.
func gf2PowMod(e uint64, mod uint32, deg int) uint32 {
	result := uint32(1)
	base := uint32(2) // the polynomial "x"
	for e > 0 {
		if e&1 == 1 {
			result = gf2MulMod(result, base, mod, deg)
		}
		base = gf2MulMod(base, base, mod, deg)
		e >>= 1
	}
	return result
}

// isPrimitive reports whether the degree-deg polynomial with coefficient
// mask p is primitive over GF(2): x has multiplicative order 2^deg − 1 in
// GF(2)[x]/(p).
func isPrimitive(p uint32, deg int) bool {
	if deg == 1 {
		return p == 0b11 // x + 1
	}
	order := uint64(1)<<uint(deg) - 1
	if gf2PowMod(order, p, deg) != 1 {
		return false
	}
	for _, q := range primeFactors(order) {
		if gf2PowMod(order/q, p, deg) == 1 {
			return false
		}
	}
	return true
}

func primeFactors(n uint64) []uint64 {
	var fs []uint64
	for p := uint64(2); p*p <= n; p++ {
		if n%p == 0 {
			fs = append(fs, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}
