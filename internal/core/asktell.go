package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// Proposal is one suggestion issued by the ask/tell state machine: a point
// the caller must evaluate and eventually feed back through Observe.
type Proposal struct {
	// ID is the suggestion sequence number, unique within one AskTell.
	ID int
	// X is the point to evaluate (the caller owns this copy).
	X []float64
	// Init reports whether the point came from the initial design.
	Init bool
	// Resubmit reports whether the point is a re-issue of a failed
	// evaluation under FailResubmit; FailedID is then the failed Result's ID.
	Resubmit bool
	FailedID int
}

// AskTellConfig configures an AskTell state machine.
type AskTellConfig struct {
	// MaxEvals bounds the total number of suggestions whose outcome counts
	// against the budget (initial design included). 0 means unbounded — the
	// machine keeps suggesting for as long as the caller keeps asking.
	MaxEvals int
	Init     [][]float64 // initial design points (required, raw coordinates)
	Lo, Hi   []float64   // design box
	// Fit refreshes the surrogate, and Proposer maximizes the acquisition
	// on it. Both are required unless the initial design covers the whole
	// budget (random search is such a machine).
	Fit      Fitter
	Proposer *Proposer
	Rng      *rand.Rand // drives κ sampling and the inner maximizer

	// SelectBatch, when set, replaces Proposer with synchronous batch
	// selection: once nothing is pending, Suggest fits the surrogate once,
	// selects up to budget points (the remaining evaluations; the selector
	// caps it at its batch size), and hands them out one at a time. While
	// that batch is out, Suggest offers only resubmissions.
	SelectBatch func(m surrogate.Surrogate, budget int, best float64) ([][]float64, error)

	OnResult func(sched.Result) // observes every successful completion in order (optional)
	// Failure selects the policy for failed evaluations (default FailAbort).
	Failure     FailurePolicy
	MaxFailures int                // bound on tolerated failures (0 = policy default)
	OnFailure   func(sched.Result) // observes every failed evaluation (optional)

	// MinFitObs is the minimum number of observations required before the
	// surrogate is fit (default 1). Only consulted when RandomFallback is
	// set: below the threshold (and past the initial design) Suggest returns
	// uniform random points instead of erroring, so a caller that asks
	// faster than it tells is never starved.
	MinFitObs      int
	RandomFallback bool
}

type pendingPoint struct {
	id int
	x  []float64
}

type resubmitPoint struct {
	x        []float64
	failedID int
}

// AskTell is the optimization loop of Algorithm 1 with control inverted: the
// caller owns the workers (goroutines, an executor, or remote simulators
// behind an HTTP API) and drives the machine through Suggest and Observe.
//
//   - Suggest returns the next point to evaluate. Every point suggested but
//     not yet observed stays in the pending set and is hallucinated into the
//     surrogate (paper §III-C) when the Proposer penalizes.
//   - Observe feeds one finished evaluation back — successful or failed, in
//     any order. Failures follow the configured FailurePolicy: they abort
//     the machine, consume budget silently, or queue the point for
//     re-suggestion.
//
// Drive runs an AskTell on an executor (every virtual-engine algorithm but
// DE, and OptimizeParallel); the public easybo.Loop and the serve sessions
// hand its suggestions to caller-owned workers. An AskTell is not safe for
// concurrent use; serialize calls (the serve package does so with a
// per-session actor goroutine).
type AskTell struct {
	cfg AskTellConfig
	fh  *FailureHandler

	launched  int // budgeted suggestions issued (resubmits excluded)
	completed int // successful + skipped-failure outcomes absorbed
	nextID    int // proposal sequence
	tells     int // Observe calls, used to synthesize Result IDs

	obsX    [][]float64
	obsY    []float64
	pending []pendingPoint
	queue   []resubmitPoint
	batch   [][]float64 // selected synchronous batch not yet handed out

	bestX []float64
	bestY float64

	err error // sticky abort error; the machine is dead once set
}

// NewAskTell validates the configuration and returns a fresh state machine.
func NewAskTell(cfg AskTellConfig) (*AskTell, error) {
	needsModel := cfg.MaxEvals <= 0 || len(cfg.Init) < cfg.MaxEvals
	switch {
	case needsModel && cfg.Fit == nil:
		return nil, errors.New("core: AskTell requires a Fitter")
	case needsModel && cfg.Proposer == nil && cfg.SelectBatch == nil:
		return nil, errors.New("core: AskTell requires a Proposer or a batch selector")
	case cfg.Rng == nil:
		return nil, errors.New("core: AskTell requires an rng")
	case len(cfg.Init) == 0:
		return nil, errors.New("core: AskTell requires an initial design")
	case cfg.MaxEvals > 0 && cfg.MaxEvals < len(cfg.Init):
		return nil, fmt.Errorf("core: MaxEvals %d smaller than initial design %d", cfg.MaxEvals, len(cfg.Init))
	case len(cfg.Lo) == 0 || len(cfg.Lo) != len(cfg.Hi):
		return nil, fmt.Errorf("core: invalid design box (lo %d, hi %d)", len(cfg.Lo), len(cfg.Hi))
	}
	if cfg.MinFitObs <= 0 {
		cfg.MinFitObs = 1
	}
	budget := cfg.MaxEvals
	if budget <= 0 {
		budget = int(^uint(0) >> 1)
	}
	return &AskTell{
		cfg:   cfg,
		fh:    NewFailureHandler(cfg.Failure, cfg.MaxFailures, budget),
		bestY: math.Inf(-1),
	}, nil
}

// issue registers x as pending and returns its proposal. Resubmitted points
// do not consume budget.
func (s *AskTell) issue(x []float64, init, resubmit bool, failedID int) Proposal {
	xc := append([]float64(nil), x...)
	p := Proposal{ID: s.nextID, X: append([]float64(nil), x...), Init: init, Resubmit: resubmit, FailedID: failedID}
	s.pending = append(s.pending, pendingPoint{id: s.nextID, x: xc})
	s.nextID++
	if !resubmit {
		s.launched++
	}
	return p
}

// Suggest returns the next point to evaluate. ok is false when no suggestion
// is available right now: the budget of MaxEvals suggestions is exhausted,
// or a synchronous batch is still out, and no failed point awaits
// resubmission (the caller should keep Observing until Done). The order of
// precedence is exactly Algorithm 1's: queued resubmissions first, then the
// initial design, then the acquisition maximizer on the refreshed surrogate
// with all pending points hallucinated — or, with a SelectBatch, the next
// point of the synchronous batch.
func (s *AskTell) Suggest() (p Proposal, ok bool, err error) {
	if s.err != nil {
		return Proposal{}, false, s.err
	}
	if len(s.queue) > 0 {
		r := s.queue[0]
		s.queue = s.queue[1:]
		return s.issue(r.x, false, true, r.failedID), true, nil
	}
	if s.cfg.MaxEvals > 0 && s.launched >= s.cfg.MaxEvals {
		return Proposal{}, false, nil
	}
	if s.launched < len(s.cfg.Init) {
		return s.issue(s.cfg.Init[s.launched], true, false, 0), true, nil
	}
	if s.cfg.RandomFallback && len(s.obsY) < s.cfg.MinFitObs {
		// Caller suggested more than it observed: uniform random draw.
		x := make([]float64, len(s.cfg.Lo))
		for j := range x {
			x[j] = s.cfg.Lo[j] + s.cfg.Rng.Float64()*(s.cfg.Hi[j]-s.cfg.Lo[j])
		}
		return s.issue(x, false, false, 0), true, nil
	}
	if s.cfg.SelectBatch != nil {
		return s.nextInBatch()
	}
	m, err := s.fit()
	if err != nil {
		return Proposal{}, false, err
	}
	x, _, err := s.cfg.Proposer.Propose(m, s.PendingPoints(), s.cfg.Lo, s.cfg.Hi, s.cfg.Rng)
	if err != nil {
		return Proposal{}, false, err
	}
	return s.issue(x, false, false, 0), true, nil
}

// nextInBatch hands out the synchronous batch, selecting a new one only at
// the barrier: once every point of the previous batch has been observed.
func (s *AskTell) nextInBatch() (Proposal, bool, error) {
	if len(s.batch) == 0 {
		if len(s.pending) > 0 {
			return Proposal{}, false, nil
		}
		m, err := s.fit()
		if err != nil {
			return Proposal{}, false, err
		}
		budget := math.MaxInt
		if s.cfg.MaxEvals > 0 {
			budget = s.cfg.MaxEvals - s.launched
		}
		if s.batch, err = s.cfg.SelectBatch(m, budget, s.bestY); err != nil {
			return Proposal{}, false, err
		}
		if len(s.batch) == 0 {
			return Proposal{}, false, errors.New("core: batch selector returned no points")
		}
	}
	x := s.batch[0]
	s.batch = s.batch[1:]
	return s.issue(x, false, false, 0), true, nil
}

// fit refreshes the surrogate on the successful observations.
func (s *AskTell) fit() (surrogate.Surrogate, error) {
	if len(s.obsY) == 0 {
		return nil, fmt.Errorf("core: no successful observation after %d launches; cannot fit a surrogate", s.launched)
	}
	m, err := s.cfg.Fit(s.obsX, s.obsY)
	if err != nil {
		return nil, fmt.Errorf("core: surrogate refresh: %w", err)
	}
	return m, nil
}

// starved reports whether the next suggestion needs a surrogate that has no
// data yet while evaluations are still out, so Drive waits for a completion
// instead of asking. With nothing pending, Suggest itself reports the
// missing observation.
func (s *AskTell) starved() bool {
	return len(s.queue) == 0 && len(s.pending) > 0 && len(s.obsY) == 0 &&
		!s.InInitialDesign() && !s.cfg.RandomFallback
}

// ObserveResult feeds one finished evaluation back into the machine. The
// point is matched against the pending set by coordinates and removed;
// observing a point that was never suggested is allowed and simply enriches
// the surrogate. A failed result (Err != nil) follows the failure policy:
// ActionAbort returns the abort error and kills the machine, ActionSkip
// consumes one budget slot, ActionResubmit queues the point so the next
// Suggest re-issues it without consuming extra budget.
func (s *AskTell) ObserveResult(r sched.Result) error {
	if s.err != nil {
		return s.err
	}
	s.tells++
	s.forget(r.X)
	if r.Err != nil {
		if s.cfg.OnFailure != nil {
			s.cfg.OnFailure(r)
		}
		action, ferr := s.fh.Handle(r)
		switch action {
		case ActionSkip:
			s.completed++ // the failure consumed one budget slot
		case ActionResubmit:
			s.queue = append(s.queue, resubmitPoint{x: append([]float64(nil), r.X...), failedID: r.ID})
		default: // ActionAbort
			s.err = fmt.Errorf("core: %w", ferr)
			return s.err
		}
		return nil
	}
	s.completed++
	xc := append([]float64(nil), r.X...)
	s.obsX = append(s.obsX, xc)
	s.obsY = append(s.obsY, r.Y)
	if r.Y > s.bestY {
		s.bestY = r.Y
		s.bestX = xc
	}
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(r)
	}
	return nil
}

// Observe is the plain ask/tell form of ObserveResult for callers without an
// executor: evalErr non-nil (or a NaN y) marks the evaluation failed.
func (s *AskTell) Observe(x []float64, y float64, evalErr error) error {
	if evalErr == nil && math.IsNaN(y) {
		evalErr = sched.ErrNaN
	}
	return s.ObserveResult(sched.Result{ID: s.tells, X: x, Y: y, Err: evalErr, Attempts: 1})
}

// Forget removes a suggested-but-unobserved point from the pending set
// without recording an outcome, so it stops being hallucinated. It reports
// whether the point was pending.
func (s *AskTell) Forget(x []float64) bool { return s.forget(x) }

func (s *AskTell) forget(x []float64) bool {
	for i, p := range s.pending {
		if equalPoints(p.x, x) {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Done reports whether the budget is exhausted: MaxEvals outcomes absorbed.
// An unbounded machine (MaxEvals 0) is never done.
func (s *AskTell) Done() bool {
	return s.cfg.MaxEvals > 0 && s.completed >= s.cfg.MaxEvals
}

// Err returns the sticky abort error, if the machine has died.
func (s *AskTell) Err() error { return s.err }

// InInitialDesign reports whether the next budgeted suggestion still comes
// from the initial design.
func (s *AskTell) InInitialDesign() bool { return s.launched < len(s.cfg.Init) }

// Launched returns the number of budgeted suggestions issued so far.
func (s *AskTell) Launched() int { return s.launched }

// Completed returns the number of budget-consuming outcomes absorbed so far
// (successes plus skipped failures; resubmitted failures excluded).
func (s *AskTell) Completed() int { return s.completed }

// Observations returns the number of successful observations absorbed.
func (s *AskTell) Observations() int { return len(s.obsY) }

// Failures returns how many failed evaluations have been handled.
func (s *AskTell) Failures() int { return s.fh.Failures() }

// Pending returns the number of suggested-but-unobserved points.
func (s *AskTell) Pending() int { return len(s.pending) + len(s.queue) }

// PendingPoints returns the suggested-but-unobserved points in suggestion
// order — the busy set X̂ of paper §III-C. The slices alias internal state;
// callers must not mutate them.
func (s *AskTell) PendingPoints() [][]float64 {
	out := make([][]float64, len(s.pending))
	for i, p := range s.pending {
		out[i] = p.x
	}
	return out
}

// Best returns the incumbent (nil, -Inf before any successful observation).
func (s *AskTell) Best() ([]float64, float64) { return s.bestX, s.bestY }

// Data returns the observed dataset in completion order. The slices alias
// internal state; callers must not mutate them.
func (s *AskTell) Data() ([][]float64, []float64) { return s.obsX, s.obsY }

// equalPoints compares coordinate vectors bit-for-bit: matching a tell to
// a pending proposal means "the same emitted value", so identical bits is
// the right relation (and NaN, which breaks ==, still matches itself).
func equalPoints(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
