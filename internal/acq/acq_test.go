package acq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fieldSurrogate computes µ and σ from simple position-dependent formulas.
type fieldSurrogate struct {
	mu    func(x []float64) float64
	sigma func(x []float64) float64
}

func (s fieldSurrogate) Predict(x []float64) (float64, float64) { return s.mu(x), s.sigma(x) }

func TestUCBMonotoneInKappa(t *testing.T) {
	mu, sigma := 1.0, 0.5
	prev := math.Inf(-1)
	for _, k := range []float64{0, 0.5, 1, 2, 4} {
		v := UCB{Kappa: k}.Score(mu, sigma)
		if v <= prev {
			t.Fatalf("UCB not increasing in kappa at %v", k)
		}
		prev = v
	}
	if got := (UCB{Kappa: 2}).Score(mu, sigma); got != 2 {
		t.Fatalf("UCB = %v, want 2", got)
	}
	if (LCB{Kappa: 2}).Score(mu, sigma) != (UCB{Kappa: 2}).Score(mu, sigma) {
		t.Fatal("LCB must alias UCB for maximization")
	}
}

func TestEIProperties(t *testing.T) {
	// EI >= 0 always; 0 when sigma = 0 and mu <= best; positive when mu > best.
	f := func(mu, sigma, best float64) bool {
		sigma = math.Abs(sigma)
		v := EI{Best: best}.Score(mu, sigma)
		return v >= 0 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if v := (EI{Best: 2}).Score(1, 0); v != 0 {
		t.Fatalf("EI = %v, want 0", v)
	}
	if v := (EI{Best: 1}).Score(3, 0); math.Abs(v-2) > 1e-12 {
		t.Fatalf("EI = %v, want 2", v)
	}
	// More uncertainty at equal mean => more EI.
	lowS := EI{Best: 0}.Score(0, 0.1)
	highS := EI{Best: 0}.Score(0, 1.0)
	if highS <= lowS {
		t.Fatal("EI must grow with sigma at the incumbent mean")
	}
}

func TestPIProperties(t *testing.T) {
	if v := (PI{Best: 0}).Score(0, 1); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("PI at the incumbent mean = %v, want 0.5", v)
	}
	if v := (PI{Best: 0}).Score(10, 1); v < 0.999 {
		t.Fatalf("PI far above best = %v", v)
	}
	if v := (PI{Best: 0}).Score(-10, 1); v > 1e-3 {
		t.Fatalf("PI far below best = %v", v)
	}
	if v := (PI{Best: 0}).Score(1, 0); v != 1 {
		t.Fatalf("deterministic improvement PI = %v, want 1", v)
	}
	if v := (PI{Best: 2}).Score(1, 0); v != 0 {
		t.Fatalf("deterministic non-improvement PI = %v, want 0", v)
	}
}

func TestWeightedTradeoff(t *testing.T) {
	mu, sigma := 2.0, 1.0
	if v := (Weighted{W: 0}).Score(mu, sigma); v != 2 {
		t.Fatalf("w=0 must be pure exploitation, got %v", v)
	}
	if v := (Weighted{W: 1}).Score(mu, sigma); v != 1 {
		t.Fatalf("w=1 must be pure exploration, got %v", v)
	}
	if v := (Weighted{W: 0.25}).Score(mu, sigma); math.Abs(v-1.75) > 1e-12 {
		t.Fatalf("w=0.25 = %v", v)
	}
}

func TestPBOWeights(t *testing.T) {
	w := PBOWeights(5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-15 {
			t.Fatalf("PBOWeights(5) = %v", w)
		}
	}
	if got := PBOWeights(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("PBOWeights(1) = %v", got)
	}
}

func TestSampleWeightDistribution(t *testing.T) {
	// Paper §III-B / Fig. 2: w concentrates near 1, support [0, λ/(λ+1)].
	rng := rand.New(rand.NewSource(1))
	n := 100000
	wMax := DefaultLambda / (DefaultLambda + 1)
	var nearMax, nearZero int
	for i := 0; i < n; i++ {
		w := SampleWeight(rng, 0) // 0 => default λ
		if w < 0 || w > wMax+1e-12 {
			t.Fatalf("w out of support: %v", w)
		}
		if w > wMax-0.05 {
			nearMax++
		}
		if w < 0.05 {
			nearZero++
		}
	}
	// Density near the top of the support is (λ+1)²/λ ≈ 8.2× the density
	// near zero (1/λ); with equal window widths, counts must reflect that.
	if nearMax < 4*nearZero {
		t.Fatalf("w not concentrated near 1: top=%d bottom=%d", nearMax, nearZero)
	}
}

func TestWeightDensityIntegratesToOne(t *testing.T) {
	// ∫ density dw over the support must be 1.
	n := 100000
	wMax := DefaultLambda / (DefaultLambda + 1)
	h := wMax / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		w := (float64(i) + 0.5) * h
		sum += WeightDensity(w, DefaultLambda) * h
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("density integrates to %v", sum)
	}
	if WeightDensity(-0.1, 6) != 0 || WeightDensity(0.99, 6) != 0 {
		t.Fatal("density must vanish outside the support")
	}
	// Monotone increasing on the support.
	if WeightDensity(0.1, 6) >= WeightDensity(0.8, 6) {
		t.Fatal("density must increase toward w=1")
	}
}

func TestHCPenaltyShape(t *testing.T) {
	recent := [][]float64{{0.5, 0.5}}
	p := HCPenalty{NHC: 100, D: 0.1, Recent: recent}
	// Far away: penalty ≈ NHC (constant shift).
	far := p.Value([]float64{0.0, 0.0})
	if math.Abs(far-100) > 1 {
		t.Fatalf("far penalty = %v, want ≈100", far)
	}
	// Inside the veto radius: explodes.
	near := p.Value([]float64{0.5, 0.52})
	if near < 1e6 {
		t.Fatalf("near penalty = %v, want huge", near)
	}
	// At an exact previous query: infinite.
	if !math.IsInf(p.Value([]float64{0.5, 0.5}), 1) {
		t.Fatal("exact repeat must be vetoed infinitely")
	}
	// Empty history: no penalty.
	if (HCPenalty{}).Value([]float64{0.1}) != 0 {
		t.Fatal("empty history must not penalize")
	}
	// Only the 5 most recent queries count (no overflow with many points).
	many := make([][]float64, 50)
	for i := range many {
		many[i] = []float64{float64(i), float64(i)}
	}
	v := HCPenalty{NHC: 100, D: 0.1, Recent: many}.Value([]float64{100, 100})
	if math.IsInf(v, 1) || math.IsNaN(v) {
		t.Fatalf("penalty with long history = %v", v)
	}
}

func TestAcquisitionsOnFieldSurrogate(t *testing.T) {
	// A surrogate whose σ has a bump at x=0.3 and µ a bump at x=0.7: pure
	// exploration (w=1) must prefer 0.3, pure exploitation (w=0) 0.7.
	s := fieldSurrogate{
		mu:    func(x []float64) float64 { return math.Exp(-50 * (x[0] - 0.7) * (x[0] - 0.7)) },
		sigma: func(x []float64) float64 { return math.Exp(-50 * (x[0] - 0.3) * (x[0] - 0.3)) },
	}
	argmax := func(f Func) float64 {
		bestX, bestV := 0.0, math.Inf(-1)
		for i := 0; i <= 1000; i++ {
			x := []float64{float64(i) / 1000}
			if v := f.Score(s.Predict(x)); v > bestV {
				bestV, bestX = v, x[0]
			}
		}
		return bestX
	}
	if x := argmax(Weighted{W: 0}); math.Abs(x-0.7) > 0.01 {
		t.Fatalf("exploitation argmax = %v", x)
	}
	if x := argmax(Weighted{W: 1}); math.Abs(x-0.3) > 0.01 {
		t.Fatalf("exploration argmax = %v", x)
	}
	if n := (UCB{}).Name() + (EI{}).Name() + (PI{}).Name() + (Weighted{}).Name() + (LCB{}).Name(); n == "" {
		t.Fatal("names must be non-empty")
	}
}
