package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSolveLowerBlock times the forward substitution L·Y = B on an
// m=256 factor (the feature-space surrogate's default basis size) for
// blocks of 1–4 and 8 right-hand sides: one op solves the whole block, so
// ns/op divided by the width is the per-column cost.
func BenchmarkSolveLowerBlock(b *testing.B) {
	const m = 256
	rng := rand.New(rand.NewSource(1))
	ch, err := NewCholesky(randomSPD(rng, m))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 4, 8} {
		rhs := make([][]float64, w)
		dst := make([][]float64, w)
		for j := range rhs {
			rhs[j] = make([]float64, m)
			dst[j] = make([]float64, m)
			for i := range rhs[j] {
				rhs[j][i] = rng.NormFloat64()
			}
		}
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ch.SolveLowerBlockInto(dst, rhs)
			}
		})
	}
}
