package bo

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*_golden.txt from the current drivers")

// goldenObjective is the smooth 2-D test function every golden run
// maximizes, with position-dependent costs so completions interleave.
func goldenObjective(x []float64) float64 {
	return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2)
}

func goldenProblem(eval func(x []float64) float64) *objective.Problem {
	return &objective.Problem{
		Name: "golden",
		Lo:   []float64{0, 0},
		Hi:   []float64{1, 1},
		Eval: eval,
		Cost: func(x []float64) float64 { return 1 + 3*x[0] },
	}
}

// TestHistoriesMatchGolden pins the virtual-time trajectories of the
// drivers to testdata. Every float is compared through its exact hex
// representation, so any behavioral drift in the executor, the drivers,
// the surrogate cadence, or rng consumption — even 1 ulp — fails the test.
//
//   - async_golden.txt: fault-free EasyBO/EasyBO-A, generated by the
//     pre-refactor executor (before the slot-pool/failure-path rebuild).
//   - driver_golden.txt: every non-DE algorithm under each failure policy
//     — abort on failures around the optimum, skip a failing slice of the
//     box, and resubmit transient first-attempt failures — with an initial
//     design that is not a multiple of the batch size. Abort runs record
//     their error instead of a history.
//   - features_golden.txt: EasyBO/EasyBO-A on the feature-space backend,
//     long enough to cross one hyperparameter refresh (HyperEvery = 64), so
//     the rank-1 absorb, the refresh, and the feature predictor are pinned
//     alongside the exact GP.
//
// Regenerate with `go test ./internal/bo -run TestHistoriesMatchGolden -update`
// only for a deliberate behavior change.
func TestHistoriesMatchGolden(t *testing.T) {
	for _, g := range []struct {
		file   string
		render func(t *testing.T) string
	}{
		{"async_golden.txt", renderAsyncGolden},
		{"driver_golden.txt", renderDriverGolden},
		{"features_golden.txt", renderFeaturesGolden},
	} {
		t.Run(strings.TrimSuffix(g.file, ".txt"), func(t *testing.T) {
			path := "testdata/" + g.file
			got := g.render(t)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, got, string(want))
		})
	}
}

// compareGolden points at the first differing line for a usable message.
func compareGolden(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("history diverged from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("history length changed: got %d lines, want %d", len(gl), len(wl))
}

func renderAsyncGolden(t *testing.T) string {
	return renderEasyBOGolden(t, Config{
		BatchSize: 4, InitPoints: 8, MaxEvals: 30, Seed: 99,
		FitIters: 15, RefitEvery: 5,
	})
}

func renderFeaturesGolden(t *testing.T) string {
	// The first fit happens at InitPoints observations; the refresh after
	// it at InitPoints+64, so 80 evaluations cross exactly one.
	return renderEasyBOGolden(t, Config{
		BatchSize: 4, InitPoints: 8, MaxEvals: 80, Seed: 17,
		FitIters: 15, Surrogate: surrogate.BackendFeatures,
	})
}

// renderEasyBOGolden runs EasyBO and EasyBO-A under cfg on the golden
// problem and renders both histories.
func renderEasyBOGolden(t *testing.T, cfg Config) string {
	var b strings.Builder
	for _, algo := range []Algorithm{AlgoEasyBO, AlgoEasyBOA} {
		cfg.Algo = algo
		h, err := Run(goldenProblem(goldenObjective), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s makespan=%x bestY=%x\n", algo, h.Makespan, h.BestY)
		for _, r := range h.Records {
			fmt.Fprintf(&b, "  id=%d w=%d x=[%x %x] y=%x s=%x e=%x\n",
				r.ID, r.Worker, r.X[0], r.X[1], r.Y, r.Start, r.End)
		}
	}
	return b.String()
}

func renderDriverGolden(t *testing.T) string {
	// nearOptimum fails around the maximizer, so an abort comes from a
	// model point rather than the initial design; nanRegion fails every
	// evaluation in a slice of the box; transient fails the first attempt
	// at every point in a (different) slice and succeeds on the
	// resubmission.
	nearOptimum := func() func(x []float64) float64 {
		return func(x []float64) float64 {
			if y := goldenObjective(x); y > -0.01 {
				return math.NaN()
			}
			return goldenObjective(x)
		}
	}
	nanRegion := func() func(x []float64) float64 {
		return func(x []float64) float64 {
			if x[0] > 0.8 {
				return math.NaN()
			}
			return goldenObjective(x)
		}
	}
	transient := func() func(x []float64) float64 {
		seen := map[[2]float64]bool{}
		return func(x []float64) float64 {
			k := [2]float64{x[0], x[1]}
			first := !seen[k]
			seen[k] = true
			if first && x[1] < 0.35 {
				return math.NaN()
			}
			return goldenObjective(x)
		}
	}
	policies := []struct {
		policy core.FailurePolicy
		eval   func() func(x []float64) float64
	}{
		{core.FailAbort, nearOptimum},
		{core.FailSkip, nanRegion},
		{core.FailResubmit, transient},
	}
	var b strings.Builder
	for _, algo := range []Algorithm{
		AlgoRandom, AlgoEI, AlgoLCB, AlgoEasyBOSeq, AlgoPBO, AlgoPHCBO,
		AlgoEasyBOS, AlgoEasyBOSP, AlgoEasyBOA, AlgoEasyBO, AlgoTS, AlgoPortfolio,
	} {
		for _, pc := range policies {
			h, err := Run(goldenProblem(pc.eval()), Config{
				Algo: algo, BatchSize: 3, InitPoints: 7, MaxEvals: 17, Seed: 5,
				FitIters: 10, RefitEvery: 4, AcqCandidates: 120, AcqRefine: 1,
				Failure: pc.policy,
			})
			if err != nil {
				fmt.Fprintf(&b, "%s/%s error=%s\n", algo, pc.policy, driverNeutral(err))
				continue
			}
			fmt.Fprintf(&b, "%s/%s makespan=%x bestY=%x\n", algo, pc.policy, h.Makespan, h.BestY)
			for _, r := range h.Records {
				fmt.Fprintf(&b, "  ok %s\n", goldenRecord(r))
			}
			for _, r := range h.Failed {
				fmt.Fprintf(&b, "  failed %s\n", goldenRecord(r))
			}
		}
	}
	return b.String()
}

func goldenRecord(r sched.Result) string {
	return fmt.Sprintf("id=%d w=%d x=[%x %x] y=%x s=%x e=%x",
		r.ID, r.Worker, r.X[0], r.X[1], r.Y, r.Start, r.End)
}

// driverNeutral drops the leading "pkg: " of a run error: the prefix names
// the package whose loop ran the evaluation, which is not part of the
// behavior the golden pins (the failed evaluation, its worker, and the
// cause are).
func driverNeutral(err error) string {
	msg := err.Error()
	for _, pkg := range []string{"bo: ", "core: "} {
		if strings.HasPrefix(msg, pkg) {
			return strings.TrimPrefix(msg, pkg)
		}
	}
	return msg
}
