package optimize

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"easybo/internal/stats"
)

// ObjectiveFactory builds a BatchObjective for exclusive use by one
// goroutine. Factories let objectives carry per-goroutine scratch (e.g. a
// surrogate predictor) so the hot loop allocates nothing while staying safe
// under concurrency.
type ObjectiveFactory func() BatchObjective

// sweepBlock is how many candidates one objective call scores during the
// sweep: a surrogate predicts a block of points with one multi-column
// triangular solve, and four columns is the widest kernel it has.
const sweepBlock = 4

// running counts the goroutines that maximizations in this process are
// running right now. It decides only how the refinements are spread over
// goroutines, never what they compute.
var running atomic.Int32

// MaximizeParallel is the multi-start global maximizer: a Latin-hypercube
// candidate sweep, fanned out in blocks of sweepBlock points across Workers
// goroutines, then Nelder–Mead refinement of the best candidates, reduced
// to the single best point found.
//
// The refinements advance in lockstep: each round is one batch evaluation
// holding a point (or a few) from every simplex of a group. Where a batch
// costs about what one point does — a surrogate's multi-column solve — one
// group on the calling goroutine does all the refinements for a fraction
// of the CPU. Where per-point work dominates (the exact GP's kernel
// vectors at small n) a second group halves the wall time, but only on an
// idle CPU. So the refinements are dealt to min(Workers, Refine) groups,
// each on its own goroutine, only while the maximizations running in the
// process leave a CPU free; otherwise they form one group.
//
// Determinism: every random draw happens up front on the caller's rng
// (candidate locations), candidate values are written by index, the top
// candidates are ranked with an explicit index tie-break, each refinement
// sees only its own values whatever its group, and the final reduction
// prefers the lower-ranked start on equal values — so the result is
// bit-identical for any worker count and grouping, including 1.
func MaximizeParallel(newF ObjectiveFactory, lo, hi []float64, rng *rand.Rand, opts MaximizeOptions) ([]float64, float64) {
	d := len(lo)
	opts.defaults(d)

	unit := stats.LatinHypercube(rng, opts.Candidates, d)
	pts := make([][]float64, len(unit))
	for i, u := range unit {
		x := make([]float64, d)
		for j := range x {
			x[j] = lo[j] + u[j]*(hi[j]-lo[j])
		}
		pts[i] = x
	}

	vals := make([]float64, len(pts))
	blocks := (len(pts) + sweepBlock - 1) / sweepBlock
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	sweep := func(w int, f BatchObjective) {
		for b := w; b < blocks; b += workers {
			i, j := b*sweepBlock, min((b+1)*sweepBlock, len(pts))
			f(pts[i:j], vals[i:j])
		}
	}
	// The calling goroutine is worker 0 and keeps its objective for the
	// refinements.
	running.Add(1)
	defer running.Add(-1)
	f := newF()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		running.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			sweep(w, newF())
		}(w)
	}
	sweep(0, f)
	wg.Wait()

	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		//easybolint:ok floateq deterministic sort tie-break: only exactly equal objective values fall through to the index order
		if vals[ia] != vals[ib] {
			return vals[ia] > vals[ib]
		}
		return ia < ib
	})

	starts := make([][]float64, min(opts.Refine, len(order)))
	for r := range starts {
		starts[r] = pts[order[r]]
	}
	groups := 1
	if int(running.Load()) < runtime.GOMAXPROCS(0) {
		groups = min(workers, len(starts))
	}
	res := refineGroups(f, newF, starts, groups, lo, hi, NelderMeadOptions{MaxEvals: opts.RefineEval})

	bestX := pts[order[0]]
	bestV := vals[order[0]]
	for _, r := range res {
		if r.v > bestV {
			bestX, bestV = r.x, r.v
		}
	}
	return append([]float64(nil), bestX...), bestV
}

// refineGroups deals the starts round-robin to groups lockstep refiners:
// group 0 runs on the calling goroutine with f, every other group on its
// own goroutine with an objective from newF. It returns each start's best
// vertex, in start order.
func refineGroups(f BatchObjective, newF ObjectiveFactory, starts [][]float64, groups int,
	lo, hi []float64, opts NelderMeadOptions) []vertex {

	res := make([]vertex, len(starts))
	group := func(g int, f BatchObjective) {
		var mine [][]float64
		for r := g; r < len(starts); r += groups {
			mine = append(mine, starts[r])
		}
		for i, v := range refineLockstep(f, mine, lo, hi, opts) {
			res[g+i*groups] = v
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < groups; g++ {
		wg.Add(1)
		running.Add(1)
		go func(g int) {
			defer wg.Done()
			defer running.Add(-1)
			group(g, newF())
		}(g)
	}
	group(0, f)
	wg.Wait()
	return res
}
