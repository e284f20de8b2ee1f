package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"easybo/internal/acq"
	"easybo/internal/optimize"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// ConstrainedProposer extends EasyBO to black-box inequality constraints
// c_j(x) ≤ 0 — the extension the paper defers to future work (§II-A). Each
// constraint gets its own GP surrogate; candidates are scored by the EasyBO
// weighted acquisition multiplied by the probability of feasibility
// (Gardner et al., 2014), with the acquisition shifted to be non-negative
// over the candidate sweep so the feasibility weighting cannot invert its
// ordering. Busy points are hallucinated into the objective and every
// constraint surrogate alike.
type ConstrainedProposer struct {
	Lambda     float64
	Penalize   bool
	Candidates int // candidate sweep size (default 80·d, min 300)
	Refine     int // Nelder-Mead refinements (default 2)
}

// ProposeConstrained returns the next query point given the objective
// surrogate, one surrogate per constraint (trained on the same inputs), and
// the busy set. When no feasible region is known yet (anyFeasible false),
// it maximizes the joint probability of feasibility instead.
func (p *ConstrainedProposer) ProposeConstrained(
	obj surrogate.Surrogate, cons []surrogate.Surrogate, busy [][]float64,
	lo, hi []float64, anyFeasible bool, rng *rand.Rand,
) ([]float64, error) {
	if obj == nil {
		return nil, errors.New("core: nil objective surrogate")
	}
	objView := obj
	consView := make([]surrogate.Surrogate, len(cons))
	copy(consView, cons)
	if p.Penalize && len(busy) > 0 {
		var err error
		objView, err = obj.WithPseudo(busy)
		if err != nil {
			return nil, fmt.Errorf("core: objective hallucination: %w", err)
		}
		for j, cm := range cons {
			if consView[j], err = cm.WithPseudo(busy); err != nil {
				return nil, fmt.Errorf("core: constraint %d hallucination: %w", j, err)
			}
		}
	}

	d := len(lo)
	nCand := p.Candidates
	if nCand <= 0 {
		nCand = 80 * d
		if nCand < 300 {
			nCand = 300
		}
	}
	refine := p.Refine
	if refine <= 0 {
		refine = 2
	}

	// One reusable predictor per constraint: the candidate sweep and the
	// simplex refinements below run on this goroutine only.
	consPred := make([]surrogate.Predictor, len(consView))
	for j, cm := range consView {
		consPred[j] = cm.Predictor()
	}
	pof := func(x []float64) float64 {
		prod := 1.0
		for _, cp := range consPred {
			mu, sigma := cp.Predict(x)
			if sigma < 1e-12 {
				if mu > 0 {
					return 0
				}
				continue
			}
			prod *= stats.NormCDF(-mu / sigma)
		}
		return prod
	}

	w := acq.SampleWeight(rng, p.Lambda)
	base := acq.Weighted{W: w}
	std := objView.StandardizedPredictor()

	// Candidate sweep.
	type cand struct {
		x     []float64
		alpha float64
		pof   float64
	}
	cands := make([]cand, nCand)
	alphaMin := 0.0
	for i, x := range stats.LatinHypercubeIn(rng, nCand, lo, hi) {
		a := base.Score(std.Predict(x))
		if i == 0 || a < alphaMin {
			alphaMin = a
		}
		cands[i] = cand{x: x, alpha: a, pof: pof(x)}
	}
	score := func(alpha, pf float64) float64 {
		if !anyFeasible {
			return pf // no feasible incumbent: chase feasibility first
		}
		return (alpha - alphaMin) * pf
	}
	sort.Slice(cands, func(a, b int) bool {
		return score(cands[a].alpha, cands[a].pof) > score(cands[b].alpha, cands[b].pof)
	})

	// Local refinement of the best candidates on the continuous score.
	f := func(x []float64) float64 {
		return score(base.Score(std.Predict(x)), pof(x))
	}
	bestX := cands[0].x
	bestV := f(bestX)
	for i := 0; i < refine && i < len(cands); i++ {
		x, v := optimize.NelderMead(f, cands[i].x, lo, hi,
			optimize.NelderMeadOptions{MaxEvals: 40 * d})
		if v > bestV {
			bestX, bestV = x, v
		}
	}
	return append([]float64(nil), bestX...), nil
}
