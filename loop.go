package easybo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// Loop is the ask-tell interface to EasyBO: Suggest returns the next point
// to evaluate, treating every point suggested but not yet observed as busy
// (hallucinated into the surrogate, paper §III-C); Observe feeds a finished
// evaluation back. This is Algorithm 1 with the scheduling inverted — the
// caller owns the workers.
//
// Loop is a thin adapter over the core ask/tell state machine (the same one
// that core.Drive runs for Optimize and OptimizeParallel, and the easybod
// service sessions bind to HTTP), configured without an evaluation budget:
// it keeps suggesting for as long as the caller keeps asking.
//
// A Loop is not safe for concurrent use; serialize Suggest/Observe calls.
type Loop struct {
	ip *objective.Problem // validated internal problem (bounds, cost)
	at *core.AskTell
}

// NewLoop validates the problem and prepares the initial design.
func NewLoop(p Problem, opts Options) (*Loop, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	at, err := newAskTell(ip, opts, core.AskTellConfig{
		// Loop reports failures through Forget, never through Observe, so
		// the machine's own failure policy is unreachable; skip is the
		// benign default.
		Failure: core.FailSkip,
	})
	if err != nil {
		return nil, err
	}
	return &Loop{ip: ip, at: at}, nil
}

// newAskTell builds the EasyBO machine behind Loop and OptimizeParallel on
// top of base, which carries the budget and the failure handling: the
// Latin-hypercube initial design (capped at a positive MaxEvals), the
// surrogate manager, and the proposer, with random points while fewer than
// two observations exist.
func newAskTell(ip *objective.Problem, opts Options, base core.AskTellConfig) (*core.AskTell, error) {
	if opts.InitPoints <= 0 {
		opts.InitPoints = 20
	}
	if base.MaxEvals > 0 && opts.InitPoints > base.MaxEvals {
		opts.InitPoints = base.MaxEvals
	}
	if opts.Lambda <= 0 {
		opts.Lambda = 6
	}
	if opts.RefitEvery <= 0 {
		opts.RefitEvery = 5
	}
	if opts.FitIters <= 0 {
		opts.FitIters = 40
	}
	switch opts.Algorithm {
	case "", EasyBO, EasyBOA:
	default:
		return nil, fmt.Errorf("easybo: Loop supports the EasyBO algorithms, not %q", opts.Algorithm)
	}
	backend, err := surrogate.ParseBackend(string(opts.Surrogate))
	if err != nil {
		return nil, fmt.Errorf("easybo: %w", err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	base.Init = append(base.Init, stats.LatinHypercubeIn(rng, opts.InitPoints, ip.Lo, ip.Hi)...)
	mm, err := core.NewModelManager(ip.Lo, ip.Hi, rng, core.ModelManagerOptions{
		RefitEvery: opts.RefitEvery,
		FitIters:   opts.FitIters,
		Backend:    backend,
		EscalateAt: opts.EscalateAt,
	})
	if err != nil {
		return nil, fmt.Errorf("easybo: %w", err)
	}
	base.Lo, base.Hi = ip.Lo, ip.Hi
	base.Fit = mm.Fit
	base.Proposer = &core.Proposer{
		Lambda:   opts.Lambda,
		Penalize: opts.Algorithm != EasyBOA,
	}
	base.Rng = rng
	// Not enough observations for a surrogate yet (the caller suggested
	// more than it observed): fall back to random points.
	base.MinFitObs = 2
	base.RandomFallback = true
	return core.NewAskTell(base)
}

// Suggest returns the next point to evaluate. Until the initial design is
// exhausted it returns design points; afterwards it maximizes the EasyBO
// acquisition with all currently busy points hallucinated.
func (l *Loop) Suggest() ([]float64, error) {
	p, ok, err := l.at.Suggest()
	if err != nil {
		return nil, err
	}
	if !ok {
		// Unreachable for an unbounded machine; guard anyway.
		return nil, errors.New("easybo: no suggestion available")
	}
	return p.X, nil
}

// Observe records a finished evaluation. The point is matched against the
// busy set (exact coordinates) and removed from it; observing a point that
// was never suggested is allowed and simply enriches the surrogate.
func (l *Loop) Observe(x []float64, y float64) error {
	if len(x) != len(l.ip.Lo) {
		return errors.New("easybo: observation dimension mismatch")
	}
	if math.IsNaN(y) {
		return errors.New("easybo: NaN observation")
	}
	return l.at.Observe(x, y, nil)
}

// Forget removes a suggested-but-unobserved point from the busy set without
// recording an observation. Call it when an evaluation failed (crashed
// simulator, timeout) and will not be retried, so the point stops being
// hallucinated into the surrogate. It reports whether the point was pending.
func (l *Loop) Forget(x []float64) bool { return l.at.Forget(x) }

// Best returns the incumbent (nil, -Inf before any observation).
func (l *Loop) Best() ([]float64, float64) { return l.at.Best() }

// Observations returns the number of observed evaluations.
func (l *Loop) Observations() int { return l.at.Observations() }

// Pending returns the number of suggested-but-unobserved points.
func (l *Loop) Pending() int { return l.at.Pending() }
