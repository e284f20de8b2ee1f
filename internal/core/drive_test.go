package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"easybo/internal/gp"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// faultyVirtual builds a virtual executor whose objective fails (NaN) on a
// caller-controlled predicate, with position-dependent costs so completions
// interleave out of order.
func faultyVirtual(b int, fail func(x []float64) bool) *sched.VirtualExecutor {
	return sched.NewVirtual(b, func(x []float64) (float64, float64) {
		cost := 1 + 3*x[0]
		if fail(x) {
			return math.NaN(), cost
		}
		return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2), cost
	})
}

func asyncFixture(rng *rand.Rand) ([][]float64, []float64, []float64, Fitter) {
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	var init [][]float64
	for i := 0; i < 8; i++ {
		init = append(init, []float64{rng.Float64(), rng.Float64()})
	}
	fit := func(xs [][]float64, ys []float64) (surrogate.Surrogate, error) {
		for _, y := range ys {
			if math.IsNaN(y) {
				panic("core: NaN observation reached the surrogate")
			}
		}
		m, err := gp.Train(xs, ys, lo, hi, rand.New(rand.NewSource(9)), &gp.TrainOptions{Fit: &gp.FitOptions{Iters: 10}})
		if err != nil {
			return nil, err
		}
		return surrogate.NewExact(m), nil
	}
	return init, lo, hi, fit
}

// drive builds an AskTell from cfg and runs it on ex. The TestAsyncLoop*
// cases use it without a batch selector: the asynchronous loop.
func drive(ctx context.Context, ex sched.Executor, cfg AskTellConfig) error {
	at, err := NewAskTell(cfg)
	if err != nil {
		return err
	}
	return Drive(ctx, ex, at)
}

func TestAsyncLoopAbortsOnFailureByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	// Fail the third initial-design point.
	ex := faultyVirtual(3, func(x []float64) bool { return x[0] == init[2][0] })
	err := drive(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6}, Rng: rng,
	})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("default policy must abort on failure, got %v", err)
	}
}

func TestAsyncLoopSkipsFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	failSet := map[float64]bool{init[1][0]: true, init[4][0]: true}
	ex := faultyVirtual(3, func(x []float64) bool { return failSet[x[0]] })
	var ok, failed []sched.Result
	err := drive(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6, Penalize: true}, Rng: rng,
		Failure:   FailSkip,
		OnResult:  func(r sched.Result) { ok = append(ok, r) },
		OnFailure: func(r sched.Result) { failed = append(failed, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 {
		t.Fatalf("failures = %d, want 2", len(failed))
	}
	// Skipped failures consume budget: successes + failures == MaxEvals.
	if len(ok)+len(failed) != 20 {
		t.Fatalf("ok %d + failed %d != 20", len(ok), len(failed))
	}
	for _, r := range ok {
		if r.Err != nil || math.IsNaN(r.Y) {
			t.Fatalf("failed result delivered as success: %+v", r)
		}
	}
	for _, r := range failed {
		if r.Err == nil {
			t.Fatalf("OnFailure saw a healthy result: %+v", r)
		}
	}
}

func TestAsyncLoopResubmitsFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	// Transient fault: each distinct point fails its first attempt only.
	attempts := map[float64]int{}
	ex := faultyVirtual(3, func(x []float64) bool {
		attempts[x[0]]++
		return attempts[x[0]] == 1 && (x[0] == init[0][0] || x[0] == init[5][0])
	})
	var ok, failed []sched.Result
	err := drive(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6, Penalize: true}, Rng: rng,
		Failure:   FailResubmit,
		OnResult:  func(r sched.Result) { ok = append(ok, r) },
		OnFailure: func(r sched.Result) { failed = append(failed, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Resubmissions do not consume budget: exactly MaxEvals successes.
	if len(ok) != 20 {
		t.Fatalf("successes = %d, want 20", len(ok))
	}
	if len(failed) != 2 {
		t.Fatalf("failures = %d, want 2", len(failed))
	}
	// Both failed points were eventually observed.
	for _, f := range failed {
		found := false
		for _, r := range ok {
			if r.X[0] == f.X[0] && r.X[1] == f.X[1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("resubmitted point %v never completed", f.X)
		}
	}
}

func TestAsyncLoopMaxFailuresBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	// One poisoned point fails every attempt: resubmission can never succeed.
	ex := faultyVirtual(3, func(x []float64) bool { return x[0] == init[3][0] })
	err := drive(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6}, Rng: rng,
		Failure: FailResubmit, MaxFailures: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "exceed the limit") {
		t.Fatalf("permanently failing point must trip MaxFailures, got %v", err)
	}
}

func TestAsyncLoopCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	ex := faultyVirtual(3, func(x []float64) bool { return false })
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := drive(ctx, ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6}, Rng: rng,
		OnResult: func(r sched.Result) {
			n++
			if n == 5 {
				cancel()
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled loop must error, got %v", err)
	}
	if n != 5 {
		t.Fatalf("loop kept absorbing results after cancel: %d", n)
	}
}

// launchLog wraps an executor and groups its launches into fills: the
// launches made between two Waits. A fill that starts with nothing busy is
// a barrier fill.
type launchLog struct {
	sched.Executor
	busy   int
	fills  []launchFill
	failed [][]float64 // points of the failed results seen so far
}

type launchFill struct {
	barrier bool
	points  [][]float64
}

func (l *launchLog) Launch(x []float64) error {
	if err := l.Executor.Launch(x); err != nil {
		return err
	}
	if len(l.fills) == 0 {
		l.fills = append(l.fills, launchFill{})
	}
	f := &l.fills[len(l.fills)-1]
	if len(f.points) == 0 {
		f.barrier = l.busy == 0
	}
	f.points = append(f.points, append([]float64(nil), x...))
	l.busy++
	return nil
}

func (l *launchLog) Wait() (sched.Result, bool) {
	r, ok := l.Executor.Wait()
	if ok {
		l.busy--
		if r.Err != nil {
			l.failed = append(l.failed, r.X)
		}
		l.fills = append(l.fills, launchFill{})
	}
	return r, ok
}

// uniformBatches is a batch selector that needs no model: up to 3 uniform
// points per barrier.
func uniformBatches(rng *rand.Rand) func(surrogate.Surrogate, int, float64) ([][]float64, error) {
	return func(_ surrogate.Surrogate, budget int, _ float64) ([][]float64, error) {
		out := make([][]float64, min(3, budget))
		for i := range out {
			out[i] = []float64{rng.Float64(), rng.Float64()}
		}
		return out, nil
	}
}

func containsPoint(set [][]float64, x []float64) bool {
	for _, p := range set {
		if equalPoints(p, x) {
			return true
		}
	}
	return false
}

func TestDriveBarrierLaunchesOnlyResubmitsWhileBatchIsOut(t *testing.T) {
	for _, policy := range []FailurePolicy{FailResubmit, FailSkip} {
		rng := rand.New(rand.NewSource(6))
		init, lo, hi, fit := asyncFixture(rng)
		// Transient fault: each distinct point fails its first attempt
		// when its first coordinate is small.
		attempts := map[[2]float64]int{}
		log := &launchLog{Executor: faultyVirtual(3, func(x []float64) bool {
			k := [2]float64{x[0], x[1]}
			attempts[k]++
			return attempts[k] == 1 && x[0] < 0.4
		})}
		var ok, failed int
		err := drive(context.Background(), log, AskTellConfig{
			MaxEvals: 20, Init: init[:6], Lo: lo, Hi: hi,
			Fit: fit, SelectBatch: uniformBatches(rng), Rng: rng,
			Failure:   policy,
			OnResult:  func(sched.Result) { ok++ },
			OnFailure: func(sched.Result) { failed++ },
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		want := 20 // resubmissions consume no budget
		if policy == FailSkip {
			want -= failed // skipped failures do
		}
		if failed == 0 || ok != want {
			t.Fatalf("%s: ok %d failed %d, want %d successes after some failures", policy, ok, failed, want)
		}
		resubmits := 0
		for i, f := range log.fills {
			if f.barrier || len(f.points) == 0 {
				continue
			}
			// A fill while a batch is out holds exactly the one
			// resubmission of the failure its Wait returned.
			if len(f.points) != 1 || !containsPoint(log.failed, f.points[0]) {
				t.Fatalf("%s: fill %d launched %v while a batch was out", policy, i, f.points)
			}
			resubmits++
		}
		if (resubmits > 0) != (policy == FailResubmit) {
			t.Fatalf("%s: %d resubmissions inside a barrier", policy, resubmits)
		}
	}
}

func TestDrivePartialInitChunkRunsAlone(t *testing.T) {
	// Seven design points on three workers: the chunks are 3, 3 and 1, and
	// the lone seventh point never shares its barrier with model points.
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	log := &launchLog{Executor: faultyVirtual(3, func([]float64) bool { return false })}
	err := drive(context.Background(), log, AskTellConfig{
		MaxEvals: 16, Init: init[:7], Lo: lo, Hi: hi,
		Fit: fit, SelectBatch: uniformBatches(rng), Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	launched := 0
	for i, f := range log.fills {
		if len(f.points) == 0 {
			continue
		}
		if !f.barrier {
			t.Fatalf("fill %d launched %v while a batch was out", i, f.points)
		}
		for _, x := range f.points {
			if isInit := launched < 7; isInit != containsPoint(init[:7], x) {
				t.Fatalf("fill %d mixes design and model points: %v", i, f.points)
			}
			launched++
		}
		sizes = append(sizes, len(f.points))
	}
	want := []int{3, 3, 1, 3, 3, 3}
	if len(sizes) != len(want) {
		t.Fatalf("barrier fills %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("barrier fills %v, want %v", sizes, want)
		}
	}
}

func TestDriveWaitsForDataBeforeModelPoints(t *testing.T) {
	// Two design points on four workers and no random fallback: the first
	// fill launches only the design and the next fill waits for a
	// successful observation rather than failing to fit.
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	log := &launchLog{Executor: faultyVirtual(4, func([]float64) bool { return false })}
	err := drive(context.Background(), log, AskTellConfig{
		MaxEvals: 10, Init: init[:2], Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6, Penalize: true}, Rng: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(log.fills[0].points); got != 2 {
		t.Fatalf("first fill launched %d points, want the 2 design points", got)
	}
}
