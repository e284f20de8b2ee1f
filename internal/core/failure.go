package core

import (
	"fmt"

	"easybo/internal/sched"
)

// FailureAction is what a driver must do with one failed evaluation.
type FailureAction int

const (
	// ActionAbort: stop the run with the returned error.
	ActionAbort FailureAction = iota
	// ActionSkip: drop the observation; the failure consumed budget.
	ActionSkip
	// ActionResubmit: relaunch the same point; no extra budget consumed.
	ActionResubmit
)

// FailureHandler is the failure-policy bookkeeping of AskTell — and so of
// every run core.Drive executes and every served session — plus the DE
// baseline, which evaluates through its own callback. Budget accounting and
// abort bounds therefore cannot drift between drivers.
type FailureHandler struct {
	policy   FailurePolicy
	max      int
	failures int
}

// NewFailureHandler resolves the policy's failure bound: maxFailures when
// positive, otherwise unlimited for FailSkip (the evaluation budget already
// bounds it) and `budget` for FailResubmit (so a point that always fails
// cannot loop forever).
func NewFailureHandler(policy FailurePolicy, maxFailures, budget int) *FailureHandler {
	if maxFailures <= 0 {
		if policy == FailResubmit {
			maxFailures = budget
		} else {
			maxFailures = int(^uint(0) >> 1) // unlimited
		}
	}
	return &FailureHandler{policy: policy, max: maxFailures}
}

// Handle records one failed evaluation and returns the action the driver
// must take. The error is non-nil exactly for ActionAbort.
func (h *FailureHandler) Handle(r sched.Result) (FailureAction, error) {
	h.failures++
	if h.policy == FailAbort {
		return ActionAbort, fmt.Errorf("evaluation %d failed on worker %d: %w", r.ID, r.Worker, r.Err)
	}
	if h.failures > h.max {
		return ActionAbort, fmt.Errorf("%d evaluation failures exceed the limit %d, last: %w", h.failures, h.max, r.Err)
	}
	if h.policy == FailSkip {
		return ActionSkip, nil
	}
	return ActionResubmit, nil
}

// Failures returns how many failed evaluations have been handled.
func (h *FailureHandler) Failures() int { return h.failures }
