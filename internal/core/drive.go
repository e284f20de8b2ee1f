package core

import (
	"context"
	"errors"
	"fmt"

	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// Fitter refreshes the surrogate from all observations so far. Implementors
// decide how often to re-optimize hyperparameters versus performing a cheap
// incremental refit, and which surrogate backend serves the posterior
// (ModelManager.Fit is the canonical implementation).
type Fitter func(x [][]float64, y []float64) (surrogate.Surrogate, error)

// FailurePolicy decides what an AskTell does with a failed evaluation
// (sched.Result.Err != nil): a panicked, NaN, timed-out, or cancelled run.
type FailurePolicy int

const (
	// FailAbort stops the loop on the first failed evaluation (default).
	FailAbort FailurePolicy = iota
	// FailSkip drops the failed observation. The failure still consumes one
	// evaluation of the MaxEvals budget — it occupied a worker — but never
	// reaches the surrogate.
	FailSkip
	// FailResubmit relaunches the same point on the freed worker. The retry
	// does not consume extra MaxEvals budget; runaway failure is bounded by
	// MaxFailures.
	FailResubmit
)

func (p FailurePolicy) String() string {
	switch p {
	case FailAbort:
		return "abort"
	case FailSkip:
		return "skip"
	case FailResubmit:
		return "resubmit"
	}
	return fmt.Sprintf("FailurePolicy(%d)", int(p))
}

// Drive runs a budgeted AskTell on an executor until the budget is spent:
// it fills every idle worker from at.Suggest, feeds each completion to
// at.ObserveResult, and returns once at.Done. It is the only loop that runs
// an optimization on an executor.
//
//   - Without a batch selector this is Algorithm 1 of the paper: after the
//     initial design, each completion frees one worker, which immediately
//     takes the maximizer of the acquisition with every still-busy point
//     hallucinated.
//   - With a batch selector it is synchronous batch BO: the same loop plus
//     a barrier. A batch launches only once nothing is pending; until then
//     a freed worker takes a resubmission or nothing.
//
// The AskTell pending set mirrors ex.Busy() exactly. Failed evaluations
// follow the machine's FailurePolicy, and cancelling ctx (nil never
// cancels) stops the loop between completions.
func Drive(ctx context.Context, ex sched.Executor, at *AskTell) error {
	budget := at.cfg.MaxEvals
	if budget <= 0 {
		return errors.New("core: Drive requires a budget (MaxEvals > 0)")
	}
	for {
		barrier := at.cfg.SelectBatch == nil || at.Pending() == 0
		for ex.Idle() > 0 && (barrier || len(at.queue) > 0) && !at.starved() {
			p, ok, err := at.Suggest()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := ex.Launch(p.X); err != nil {
				if p.Resubmit {
					return fmt.Errorf("core: resubmit of failed evaluation %d: %w", p.FailedID, err)
				}
				return err
			}
		}
		if at.Done() {
			return nil
		}
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("core: cancelled after %d of %d evaluations: %w", at.Completed(), budget, ctx.Err())
		}
		r, ok := ex.Wait()
		if !ok {
			return fmt.Errorf("core: executor drained after %d of %d evaluations", at.Completed(), budget)
		}
		if err := at.ObserveResult(r); err != nil {
			return err
		}
	}
}
