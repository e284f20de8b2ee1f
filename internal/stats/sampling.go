package stats

import (
	"math/rand"
)

// LatinHypercube returns n points in [0,1)^d forming a Latin hypercube:
// in each dimension the n points occupy the n equal-width strata exactly
// once, in an order shuffled by rng. This is the standard initial design
// for Bayesian optimization (20 points in the paper's experiments).
func LatinHypercube(rng *rand.Rand, n, d int) [][]float64 {
	if n < 0 || d < 0 {
		panic("stats: negative LatinHypercube size")
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
	}
	perm := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < n; i++ {
			pts[i][j] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return pts
}

// LatinHypercubeIn is LatinHypercube scaled into the box [lo, hi]: each
// coordinate u of the unit design becomes lo + u*(hi-lo). The dimension is
// len(lo).
func LatinHypercubeIn(rng *rand.Rand, n int, lo, hi []float64) [][]float64 {
	pts := LatinHypercube(rng, n, len(lo))
	for _, x := range pts {
		for j := range x {
			x[j] = lo[j] + x[j]*(hi[j]-lo[j])
		}
	}
	return pts
}

// Uniform returns n points drawn uniformly from [0,1)^d.
func Uniform(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// sobolDirections holds primitive polynomials and initial direction numbers
// for the first dimensions of the Sobol sequence (Joe & Kuo style, first 16
// dimensions are enough for the 10-/12-variable circuit problems).
var sobolPolys = []struct {
	s, a uint32
	m    []uint32
}{
	{1, 0, []uint32{1}},
	{2, 1, []uint32{1, 3}},
	{3, 1, []uint32{1, 3, 1}},
	{3, 2, []uint32{1, 1, 1}},
	{4, 1, []uint32{1, 1, 3, 3}},
	{4, 4, []uint32{1, 3, 5, 13}},
	{5, 2, []uint32{1, 1, 5, 5, 17}},
	{5, 4, []uint32{1, 1, 5, 5, 5}},
	{5, 7, []uint32{1, 1, 7, 11, 19}},
	{5, 11, []uint32{1, 1, 5, 1, 1}},
	{5, 13, []uint32{1, 1, 1, 3, 11}},
	{5, 14, []uint32{1, 3, 5, 5, 31}},
	{6, 1, []uint32{1, 3, 3, 9, 7, 49}},
	{6, 13, []uint32{1, 1, 1, 15, 21, 21}},
	{6, 16, []uint32{1, 3, 1, 13, 27, 49}},
}

const sobolBits = 30

// Sobol generates low-discrepancy points in [0,1)^d.
// Dimension 0 is the van der Corput sequence in base 2; higher dimensions use
// the direction numbers above. Supports up to len(sobolPolys)+1 dimensions.
type Sobol struct {
	dim int
	v   [][]uint32 // direction numbers per dimension
	x   []uint32   // current Gray-code state
	n   uint32
}

// MaxSobolDim is the largest dimension supported by NewSobol.
const MaxSobolDim = 16

// NewSobol creates a d-dimensional Sobol sequence generator.
// It panics if d exceeds MaxSobolDim.
func NewSobol(d int) *Sobol {
	if d < 1 || d > MaxSobolDim {
		panic("stats: Sobol dimension out of range")
	}
	s := &Sobol{dim: d, v: make([][]uint32, d), x: make([]uint32, d)}
	for j := 0; j < d; j++ {
		v := make([]uint32, sobolBits+1)
		if j == 0 {
			for i := 1; i <= sobolBits; i++ {
				v[i] = 1 << (sobolBits - i)
			}
		} else {
			p := sobolPolys[j-1]
			deg := int(p.s)
			for i := 1; i <= deg; i++ {
				v[i] = p.m[i-1] << (sobolBits - i)
			}
			for i := deg + 1; i <= sobolBits; i++ {
				v[i] = v[i-deg] ^ (v[i-deg] >> deg)
				for k := 1; k < deg; k++ {
					if (p.a>>(deg-1-k))&1 == 1 {
						v[i] ^= v[i-k]
					}
				}
			}
		}
		s.v[j] = v
	}
	return s
}

// Next returns the next point of the sequence.
func (s *Sobol) Next() []float64 {
	// Gray code: index of the lowest zero bit of n.
	c := 1
	n := s.n
	for n&1 == 1 {
		n >>= 1
		c++
	}
	out := make([]float64, s.dim)
	for j := 0; j < s.dim; j++ {
		s.x[j] ^= s.v[j][c]
		out[j] = float64(s.x[j]) / float64(uint32(1)<<sobolBits)
	}
	s.n++
	return out
}

// SobolPoints returns the first n points of a d-dimensional Sobol sequence
// (skipping the initial all-zeros point).
func SobolPoints(n, d int) [][]float64 {
	g := NewSobol(d)
	pts := make([][]float64, n)
	g.Next() // drop the origin
	for i := 0; i < n; i++ {
		pts[i] = g.Next()
	}
	return pts
}
