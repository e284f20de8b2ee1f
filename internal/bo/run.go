package bo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/optimize"
	"easybo/internal/sched"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// Run executes one optimization run of the configured algorithm on the
// problem, entirely in virtual time, and returns its history. Runs are
// deterministic given Config.Seed.
//
// Every algorithm but DE is an AskTell driven by core.Drive on B virtual
// workers: the asynchronous ones with the EasyBO proposer, the synchronous
// and sequential ones with a batch selector (the same loop plus a barrier),
// and random search as a machine whose initial design is the whole budget.
func Run(p *objective.Problem, cfg Config) (*History, error) {
	if p == nil {
		return nil, errors.New("bo: nil problem")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var recs, failed []sched.Result
	at := core.AskTellConfig{
		MaxEvals: cfg.MaxEvals,
		Lo:       p.Lo, Hi: p.Hi,
		Rng:      rng,
		OnResult: func(r sched.Result) { recs = append(recs, r) },

		Failure:     cfg.Failure,
		MaxFailures: cfg.MaxFailures,
		OnFailure:   func(r sched.Result) { failed = append(failed, r) },
	}
	switch cfg.Algo {
	case AlgoDE:
		return runDE(p, cfg, rng)
	case AlgoRandom:
		at.Init = uniformDesign(p, cfg.MaxEvals, rng)
	case AlgoEI, AlgoLCB, AlgoEasyBOSeq, AlgoPortfolio:
		cfg.BatchSize = 1
		fallthrough
	case AlgoPBO, AlgoPHCBO, AlgoEasyBOS, AlgoEasyBOSP, AlgoTS, AlgoEasyBOA, AlgoEasyBO:
		if err := cfg.modelDriven(p, rng, &at); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bo: unknown algorithm %q", cfg.Algo)
	}
	machine, err := core.NewAskTell(at)
	if err != nil {
		return nil, err
	}
	if err := core.Drive(cfg.Ctx, sched.NewVirtual(cfg.BatchSize, p.EvalWithCost), machine); err != nil {
		return nil, err
	}
	return newHistory(cfg.Algo, cfg.BatchSize, recs, failed), nil
}

// modelDriven gives the machine its surrogate manager and the paper's random
// initial design, in that order of rng use, and its acquisition: the EasyBO
// proposer for the asynchronous algorithms, and for the synchronous and
// sequential ones a batch selector that picks min(B, remaining) points at
// each barrier.
func (c Config) modelDriven(p *objective.Problem, rng *rand.Rand, at *core.AskTellConfig) error {
	mm, err := newModelManager(p.Lo, p.Hi, rng, c)
	if err != nil {
		return err
	}
	at.Fit = mm.Fit
	at.Init = initialDesign(p, c.InitPoints, rng)
	if c.Algo.IsAsync() {
		at.Proposer = &core.Proposer{Lambda: c.Lambda, Penalize: c.Algo == AlgoEasyBO, MaxOpts: c.acqOpts()}
		return nil
	}
	sel, err := c.selectorFor()
	if err != nil {
		return err
	}
	at.SelectBatch = func(m surrogate.Surrogate, budget int, best float64) ([][]float64, error) {
		return sel.SelectBatch(m, min(c.BatchSize, budget), p.Lo, p.Hi, best, rng)
	}
	return nil
}

// initialDesign draws the paper's random initial design (LHS over the box).
func initialDesign(p *objective.Problem, n int, rng *rand.Rand) [][]float64 {
	return stats.LatinHypercubeIn(rng, n, p.Lo, p.Hi)
}

// uniformDesign draws n points uniformly over the box, in launch order.
func uniformDesign(p *objective.Problem, n int, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		x := make([]float64, p.Dim())
		for j := range x {
			x[j] = p.Lo[j] + rng.Float64()*(p.Hi[j]-p.Lo[j])
		}
		pts[i] = x
	}
	return pts
}

func (c Config) acqOpts() optimize.MaximizeOptions {
	o := optimize.MaximizeOptions{Candidates: c.AcqCandidates, Refine: c.AcqRefine}
	if o.Refine == 0 {
		o.Refine = 2
	}
	return o
}

// selectorFor builds the batch selector for the sync/sequential algorithms.
func (c Config) selectorFor() (batchSelector, error) {
	opts := c.acqOpts()
	switch c.Algo {
	case AlgoEI:
		return eiSelector{xi: c.XiEI, opts: opts}, nil
	case AlgoLCB:
		return lcbSelector{kappa: c.KappaLCB, opts: opts}, nil
	case AlgoPBO:
		return pboSelector{opts: opts}, nil
	case AlgoPHCBO:
		return newPHCBOSelector(c.NHC, c.HCRadius, opts), nil
	case AlgoEasyBOSeq, AlgoEasyBOS:
		return easySelector{&core.Proposer{Lambda: c.Lambda, Penalize: false, MaxOpts: opts}}, nil
	case AlgoEasyBOSP:
		return easySelector{&core.Proposer{Lambda: c.Lambda, Penalize: true, MaxOpts: opts}}, nil
	case AlgoTS:
		return tsSelector{opts: opts}, nil
	case AlgoPortfolio:
		return newPortfolioSelector(c.XiEI, c.KappaLCB, opts), nil
	default:
		return nil, fmt.Errorf("bo: %q is not a synchronous algorithm", c.Algo)
	}
}

// runDE runs the paper's differential-evolution baseline. DE evaluates
// sequentially on one worker, exactly as the baseline's huge time columns
// in Tables I/II assume. NaN objective values follow the shared failure
// contract: they abort under FailAbort, and otherwise rank last in DE's
// selection without ever entering Records (DE cannot resubmit — the same
// point would fail identically — so FailResubmit degrades to FailSkip).
func runDE(p *objective.Problem, cfg Config, rng *rand.Rand) (*History, error) {
	fh := core.NewFailureHandler(cfg.Failure, cfg.MaxFailures, cfg.MaxEvals)
	var recs, failed []sched.Result
	now := 0.0
	var abortErr error
	wrapped := func(x []float64) float64 {
		if abortErr != nil {
			return math.Inf(-1) // aborted: starve DE without touching the objective
		}
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			abortErr = fmt.Errorf("bo: cancelled after %d of %d evaluations: %w",
				len(recs)+len(failed), cfg.MaxEvals, cfg.Ctx.Err())
			return math.Inf(-1)
		}
		y := p.Eval(x)
		cost := 1.0
		if p.Cost != nil {
			cost = p.Cost(x)
		}
		r := sched.Result{
			ID: len(recs) + len(failed), X: append([]float64(nil), x...), Y: y,
			Start: now, End: now + cost, Attempts: 1,
		}
		now += cost
		if math.IsNaN(y) {
			r.Err = sched.ErrNaN
			failed = append(failed, r)
			if action, ferr := fh.Handle(r); action == core.ActionAbort {
				abortErr = fmt.Errorf("bo: %w", ferr)
			}
			return math.Inf(-1) // failed designs rank last in selection
		}
		recs = append(recs, r)
		return y
	}
	optimize.DE(wrapped, p.Lo, p.Hi, rng,
		optimize.DEOptions{PopSize: cfg.DEPop, MaxEvals: cfg.MaxEvals}, nil)
	if abortErr != nil {
		return nil, abortErr
	}
	return newHistory(AlgoDE, 1, recs, failed), nil
}
