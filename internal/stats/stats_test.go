package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormPDF(t *testing.T) {
	if got := NormPDF(0); math.Abs(got-0.3989422804014327) > 1e-15 {
		t.Fatalf("NormPDF(0) = %v", got)
	}
	// Symmetry.
	if NormPDF(1.3) != NormPDF(-1.3) {
		t.Fatal("pdf not symmetric")
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormCDF(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("NormCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormQuantileInvertsCDF(t *testing.T) {
	f := func(u float64) bool {
		p := math.Abs(math.Mod(u, 1))
		if p < 1e-10 || p > 1-1e-10 {
			return true
		}
		z := NormQuantile(p)
		return math.Abs(NormCDF(z)-p) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("tail values wrong")
	}
	if !math.IsNaN(NormQuantile(-0.1)) || !math.IsNaN(NormQuantile(1.1)) {
		t.Fatal("out-of-range p must be NaN")
	}
	if math.Abs(NormQuantile(0.5)) > 1e-12 {
		t.Fatal("median must be 0")
	}
}

func TestLogNormPDF(t *testing.T) {
	for _, z := range []float64{-2, 0, 0.5, 3} {
		if math.Abs(LogNormPDF(z)-math.Log(NormPDF(z))) > 1e-12 {
			t.Fatalf("LogNormPDF mismatch at %v", z)
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, d := 32, 5
	pts := LatinHypercube(rng, n, d)
	if len(pts) != n {
		t.Fatalf("got %d points", len(pts))
	}
	for j := 0; j < d; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := pts[i][j]
			if v < 0 || v >= 1 {
				t.Fatalf("point out of [0,1): %v", v)
			}
			k := int(v * float64(n))
			if seen[k] {
				t.Fatalf("stratum %d in dim %d hit twice", k, j)
			}
			seen[k] = true
		}
	}
}

// TestLatinHypercubeInScalesUnitDesign: the box design is the unit design
// of the same draw mapped through lo + u*(hi-lo), bit for bit, which is
// what keeps the golden histories unchanged.
func TestLatinHypercubeInScalesUnitDesign(t *testing.T) {
	lo, hi := []float64{-2, 0.5, 10}, []float64{3, 0.75, 1e4}
	unit := LatinHypercube(rand.New(rand.NewSource(9)), 12, len(lo))
	box := LatinHypercubeIn(rand.New(rand.NewSource(9)), 12, lo, hi)
	for i := range unit {
		for j := range lo {
			want := lo[j] + unit[i][j]*(hi[j]-lo[j])
			if math.Float64bits(box[i][j]) != math.Float64bits(want) {
				t.Fatalf("point %d dim %d = %v, want %v", i, j, box[i][j], want)
			}
		}
	}
}

func TestLatinHypercubeDeterministic(t *testing.T) {
	a := LatinHypercube(rand.New(rand.NewSource(5)), 10, 3)
	b := LatinHypercube(rand.New(rand.NewSource(5)), 10, 3)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed must give identical design")
			}
		}
	}
}

func TestUniform(t *testing.T) {
	pts := Uniform(rand.New(rand.NewSource(1)), 100, 4)
	for _, p := range pts {
		for _, v := range p {
			if v < 0 || v >= 1 {
				t.Fatalf("uniform point out of range: %v", v)
			}
		}
	}
}

func TestSobolFirstPoints(t *testing.T) {
	// The base-2 van der Corput sequence starts 1/2, 1/4, 3/4, ...
	g := NewSobol(2)
	p1 := g.Next()
	p2 := g.Next()
	p3 := g.Next()
	if math.Abs(p1[0]-0.5) > 1e-12 || math.Abs(p2[0]-0.75)+math.Abs(p3[0]-0.25) > 1e-9 &&
		math.Abs(p2[0]-0.25)+math.Abs(p3[0]-0.75) > 1e-9 {
		t.Fatalf("unexpected first Sobol points: %v %v %v", p1, p2, p3)
	}
}

func TestSobolUniformity(t *testing.T) {
	// Low-discrepancy: each half of each dimension gets n/2 ± small.
	n, d := 256, 6
	pts := SobolPoints(n, d)
	for j := 0; j < d; j++ {
		var lo int
		for _, p := range pts {
			if p[j] < 0 || p[j] >= 1 {
				t.Fatalf("out of range: %v", p[j])
			}
			if p[j] < 0.5 {
				lo++
			}
		}
		if lo < n/2-2 || lo > n/2+2 {
			t.Fatalf("dim %d: %d of %d points in lower half", j, lo, n)
		}
	}
}

func TestSobolDimensionLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic beyond MaxSobolDim")
		}
	}()
	NewSobol(MaxSobolDim + 1)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 4, 1, 5})
	if s.Best != 5 || s.Worst != 1 || s.N != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Mean-2.8) > 1e-12 {
		t.Fatalf("mean %v", s.Mean)
	}
	want := math.Sqrt((0.04 + 3.24 + 1.44 + 3.24 + 4.84) / 4)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v want %v", s.Std, want)
	}
	if s.Median != 3 {
		t.Fatalf("median %v", s.Median)
	}
	if s.BestIndex != 4 || s.WorstIndex != 1 {
		t.Fatalf("indices %d %d", s.BestIndex, s.WorstIndex)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	s := Summarize(nil)
	if !math.IsNaN(s.Mean) || s.N != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	one := Summarize([]float64{7})
	if one.Best != 7 || one.Worst != 7 || one.Std != 0 || one.Median != 7 {
		t.Fatalf("singleton summary %+v", one)
	}
}

func TestMeanVarianceMaxMin(t *testing.T) {
	xs := []float64{2, 4, 6}
	if Mean(xs) != 4 {
		t.Fatal("Mean wrong")
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("Variance singleton must be 0")
	}
	if v, i := Max(xs); v != 6 || i != 2 {
		t.Fatal("Max wrong")
	}
	if v, i := Min(xs); v != 2 || i != 0 {
		t.Fatal("Min wrong")
	}
	if v, i := Max(nil); !math.IsNaN(v) || i != -1 {
		t.Fatal("Max(nil) wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) wrong")
	}
}

func TestQuantileSortedInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := quantileSorted(sorted, 0.25); q != 2.5 {
		t.Fatalf("q25 = %v", q)
	}
	if q := quantileSorted(sorted, 1); q != 10 {
		t.Fatalf("q100 = %v", q)
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestMannWhitneyUSeparatedSamples(t *testing.T) {
	// Clearly separated samples: tiny p-value; U extreme.
	a := []float64{10, 11, 12, 13, 14, 15, 16, 17}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	u, p := MannWhitneyU(a, b)
	if u != 64 { // all pairwise wins
		t.Fatalf("U = %v, want 64", u)
	}
	if p > 0.01 {
		t.Fatalf("p = %v, want significant", p)
	}
}

func TestMannWhitneyUIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	u, p := MannWhitneyU(a, a)
	if math.Abs(u-18) > 1e-9 { // mean U = n1*n2/2
		t.Fatalf("U = %v, want 18", u)
	}
	if p < 0.9 {
		t.Fatalf("identical samples must not be significant: p=%v", p)
	}
}

func TestMannWhitneyUTiesAndEdges(t *testing.T) {
	// Heavy ties must not produce NaN.
	a := []float64{1, 1, 1, 2, 2}
	b := []float64{1, 2, 2, 2, 2}
	u, p := MannWhitneyU(a, b)
	if math.IsNaN(u) || math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("u=%v p=%v", u, p)
	}
	if _, p := MannWhitneyU(nil, a); p != 1 {
		t.Fatal("empty sample must return p=1")
	}
}

func TestMannWhitneyUSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := make([]float64, 10)
	b := make([]float64, 12)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64() + 0.4
	}
	_, pab := MannWhitneyU(a, b)
	_, pba := MannWhitneyU(b, a)
	if math.Abs(pab-pba) > 1e-9 {
		t.Fatalf("p not symmetric: %v vs %v", pab, pba)
	}
}
