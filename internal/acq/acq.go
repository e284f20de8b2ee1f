// Package acq implements the acquisition functions compared in the EasyBO
// paper: UCB/LCB (Eq. 3), EI, PI, the weighted pBO acquisition (Eq. 4/7),
// the pHCBO high-coverage penalty (Eq. 5–6), and EasyBO's randomized-weight
// acquisition with hallucinated uncertainty (Eq. 8–9).
//
// All acquisitions are formulated for MAXIMIZATION of the objective and are
// intended to be evaluated on standardized surrogate outputs (zero-mean,
// unit-variance), which is how the weighted forms keep µ and σ commensurate.
package acq

import (
	"math"
	"math/rand"

	"easybo/internal/stats"
)

// Surrogate is the pointwise posterior view (the GP-Hedge reward reads
// the posterior mean through it).
type Surrogate interface {
	// Predict returns the posterior mean and standard deviation at x.
	Predict(x []float64) (mu, sigma float64)
}

// Func is an acquisition: a score of the posterior mean and deviation at a
// candidate point; higher is better. Every acquisition here depends on the
// point only through (µ, σ), so a block of points is scored by predicting
// the block at once and scoring each pair (see Batch).
type Func interface {
	Score(mu, sigma float64) float64
	Name() string
}

// BatchPredictor predicts a block of points at once (surrogate.Predictor
// implements it).
type BatchPredictor interface {
	PredictBatch(xs [][]float64, mu, sigma []float64)
}

// Batch returns the block objective of f on p: it writes the acquisition
// value at every xs[j] into vals[j]. The values equal
// f.Score(p.Predict(xs[j])) bit for bit. The returned function owns scratch
// and, like p, belongs to one goroutine.
func Batch(f Func, p BatchPredictor) func(xs [][]float64, vals []float64) {
	var sigma []float64
	return func(xs [][]float64, vals []float64) {
		if cap(sigma) < len(xs) {
			sigma = make([]float64, len(xs))
		}
		sigma = sigma[:len(xs)]
		p.PredictBatch(xs, vals, sigma) // the means land in vals
		for j, mu := range vals[:len(xs)] {
			vals[j] = f.Score(mu, sigma[j])
		}
	}
}

// UCB is the upper confidence bound µ + κσ (paper Eq. 3).
type UCB struct{ Kappa float64 }

// Name implements Func.
func (UCB) Name() string { return "UCB" }

// Score implements Func.
func (u UCB) Score(mu, sigma float64) float64 {
	return mu + u.Kappa*sigma
}

// LCB is the optimistic lower-confidence-bound strategy from the paper's
// baseline list. For a maximization problem the optimistic rule coincides
// with UCB; the type exists so experiment tables can name it faithfully.
type LCB struct{ Kappa float64 }

// Name implements Func.
func (LCB) Name() string { return "LCB" }

// Score implements Func.
func (l LCB) Score(mu, sigma float64) float64 {
	return UCB{Kappa: l.Kappa}.Score(mu, sigma)
}

// EI is the expected improvement over Best by at least Xi.
type EI struct {
	Best float64
	Xi   float64
}

// Name implements Func.
func (EI) Name() string { return "EI" }

// Score implements Func.
func (e EI) Score(mu, sigma float64) float64 {
	if sigma <= 1e-12 {
		if d := mu - e.Best - e.Xi; d > 0 {
			return d
		}
		return 0
	}
	z := (mu - e.Best - e.Xi) / sigma
	v := (mu-e.Best-e.Xi)*stats.NormCDF(z) + sigma*stats.NormPDF(z)
	// Expected improvement is non-negative by definition; floating-point
	// cancellation at extreme magnitudes can produce tiny negatives or NaN.
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// PI is the probability of improvement over Best by at least Xi.
type PI struct {
	Best float64
	Xi   float64
}

// Name implements Func.
func (PI) Name() string { return "PI" }

// Score implements Func.
func (p PI) Score(mu, sigma float64) float64 {
	if sigma <= 1e-12 {
		if mu-p.Best-p.Xi > 0 {
			return 1
		}
		return 0
	}
	return stats.NormCDF((mu - p.Best - p.Xi) / sigma)
}

// Weighted is the pBO/EasyBO weighted acquisition (paper Eq. 4, 7, 8, 9):
//
//	α(x, w) = (1−w)·µ(x) + w·σ(x)
//
// With the EasyBO penalization the posterior it scores is the hallucinated
// model's, making σ the deflated σ̂ of Eq. (9).
type Weighted struct{ W float64 }

// Name implements Func.
func (Weighted) Name() string { return "Weighted" }

// Score implements Func.
func (a Weighted) Score(mu, sigma float64) float64 {
	return (1-a.W)*mu + a.W*sigma
}

// PBOWeights returns the fixed weight ladder used by pBO/pHCBO in the paper:
// w_i = (i−1)/(B−1) for batch size B (w = 0 for B = 1).
func PBOWeights(b int) []float64 {
	w := make([]float64, b)
	if b <= 1 {
		return w
	}
	for i := 0; i < b; i++ {
		w[i] = float64(i) / float64(b-1)
	}
	return w
}

// SampleWeight draws EasyBO's randomized weight (paper §III-B):
// κ ~ U[0, λ], w = κ/(κ+1). The induced density of w rises toward 1,
// favouring exploration and batch diversity. λ = 6 in the paper.
func SampleWeight(rng *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	kappa := rng.Float64() * lambda
	return kappa / (kappa + 1)
}

// DefaultLambda is the paper's λ = 6.0 (§III-B).
const DefaultLambda = 6.0

// WeightDensity returns the analytic density of w under κ ~ U[0, λ],
// w = κ/(κ+1); used to regenerate the paper's Figure 2. The support is
// [0, λ/(λ+1)].
func WeightDensity(w, lambda float64) float64 {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	wMax := lambda / (lambda + 1)
	if w < 0 || w > wMax {
		return 0
	}
	// κ = w/(1−w), dκ/dw = 1/(1−w)²; density = (1/λ)·dκ/dw.
	d := 1 - w
	return 1 / (lambda * d * d)
}

// HCPenalty is the pHCBO high-coverage penalization term (paper Eq. 6):
//
//	α_HC(x) = N_HC · (∏_{j=1}^{5} exp[(d/dx_j)^10])^{1/5}
//
// where dx_j is the distance from x to the j-th most recent query of the
// same weight index and d is a manually chosen radius. Far from all recent
// queries the term tends to the constant N_HC (which does not move the
// argmax); within radius d it explodes and vetoes the region.
type HCPenalty struct {
	NHC    float64     // penalty scale (paper: "extremely large"; default 100)
	D      float64     // veto radius in normalized input space (default 0.1)
	Recent [][]float64 // up to 5 most recent queries for this weight index
}

// Value returns the penalty to SUBTRACT from the base acquisition.
func (h HCPenalty) Value(x []float64) float64 {
	nhc := h.NHC
	if nhc == 0 {
		nhc = 100
	}
	d := h.D
	if d == 0 {
		d = 0.1
	}
	if len(h.Recent) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, q := range h.Recent {
		if n == 5 {
			break
		}
		n++
		var dist2 float64
		for i := range x {
			diff := x[i] - q[i]
			dist2 += diff * diff
		}
		dx := math.Sqrt(dist2)
		if dx < 1e-12 {
			return math.Inf(1)
		}
		e := math.Pow(d/dx, 10)
		if e > 600 { // exp overflow guard: the veto is already absolute
			e = 600
		}
		sum += e
	}
	return nhc * math.Exp(sum/5)
}
