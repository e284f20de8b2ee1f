// Package core implements the EasyBO algorithm itself — the paper's primary
// contribution (§III):
//
//   - Proposer draws the randomized exploration weight w = κ/(κ+1) with
//     κ ~ U[0, λ] (Eq. 8) and maximizes the weighted acquisition
//     α(x,w) = (1−w)·µ(x) + w·σ̂(x) over the design box, where σ̂ optionally
//     comes from a hallucinated surrogate that absorbs the busy points as
//     pseudo-observations (Eq. 9, §III-C).
//   - AskTell is Algorithm 1 as a state machine, and Drive runs it on an
//     executor: whenever a worker becomes idle, absorb the newly finished
//     observation, refresh the surrogate, hallucinate the still-busy
//     queries, and dispatch the maximizer of the acquisition.
//
// Synchronous batch BO is the same machine plus a barrier: with a batch
// selector, Drive launches a batch only once nothing is pending. The
// synchronous EasyBO variants (EasyBO-S / EasyBO-SP evaluated in §IV) reuse
// Proposer through ProposeBatch as such a selector.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"easybo/internal/acq"
	"easybo/internal/optimize"
	"easybo/internal/surrogate"
)

// Proposer selects EasyBO query points.
type Proposer struct {
	// Lambda is the κ upper bound of Eq. (8); the paper uses 6.0.
	Lambda float64
	// Penalize enables the hallucination penalization of Eq. (9) (σ̂ from a
	// surrogate refit with pseudo-observations at the busy points). Without
	// it the plain posterior deviation is used (EasyBO-S / EasyBO-A).
	Penalize bool
	// MaxOpts tunes the inner acquisition maximizer.
	MaxOpts optimize.MaximizeOptions
}

// Propose returns the next query point given the fitted surrogate, the busy
// set (points still under evaluation, raw coordinates), and the design box.
// It also reports the sampled weight for diagnostics. The hallucinated
// variant extends the surrogate incrementally (rank-append on the exact GP,
// rank-1 information updates on the feature backend), and the acquisition
// maximization fans its multistart out across goroutines, each with its own
// allocation-free predictor.
func (p *Proposer) Propose(m surrogate.Surrogate, busy [][]float64, lo, hi []float64, rng *rand.Rand) (x []float64, w float64, err error) {
	if m == nil {
		return nil, 0, errors.New("core: nil surrogate")
	}
	view := m
	if p.Penalize && len(busy) > 0 {
		view, err = m.WithPseudo(busy)
		if err != nil {
			return nil, 0, fmt.Errorf("core: hallucinated refit: %w", err)
		}
	}
	return p.proposeOn(view, lo, hi, rng)
}

// proposeOn maximizes the randomized-weight acquisition on an already
// hallucinated surrogate view.
func (p *Proposer) proposeOn(view surrogate.Surrogate, lo, hi []float64, rng *rand.Rand) (x []float64, w float64, err error) {
	w = acq.SampleWeight(rng, p.Lambda)
	a := acq.Weighted{W: w}
	x, _ = optimize.MaximizeParallel(func() optimize.Objective {
		s := view.StandardizedPredictor()
		return func(q []float64) float64 { return a.Value(s, q) }
	}, lo, hi, rng, p.MaxOpts)
	return x, w, nil
}

// ProposeBatch selects b points synchronously (EasyBO-S when Penalize is
// false, EasyBO-SP when true). With penalization each selected point is
// immediately hallucinated so that later selections in the same batch are
// pushed away from it — the in-batch diversity device of §III-C. The
// hallucinations accumulate on one incrementally extended view (each step
// appends a single row to the factor), so a batch costs O(b·n²) instead of
// the O(b·n³) of per-step refits.
func (p *Proposer) ProposeBatch(m surrogate.Surrogate, b int, lo, hi []float64, rng *rand.Rand) ([][]float64, error) {
	if b < 1 {
		return nil, errors.New("core: batch size must be >= 1")
	}
	if m == nil {
		return nil, errors.New("core: nil surrogate")
	}
	batch := make([][]float64, 0, b)
	view := m
	for i := 0; i < b; i++ {
		x, _, err := p.proposeOn(view, lo, hi, rng)
		if err != nil {
			return nil, err
		}
		batch = append(batch, x)
		if p.Penalize && i+1 < b {
			view, err = view.WithPseudo(batch[i : i+1])
			if err != nil {
				return nil, fmt.Errorf("core: hallucinated refit: %w", err)
			}
		}
	}
	return batch, nil
}
