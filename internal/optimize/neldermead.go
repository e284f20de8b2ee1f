// Package optimize provides the derivative-free optimizers used by the BO
// stack: a box-constrained Nelder–Mead simplex, a multi-start acquisition
// maximizer (space-filling candidates + simplex refinement), and the
// differential-evolution global optimizer that serves as the paper's DE
// baseline [13].
package optimize

import (
	"math"
	"math/rand"
	"sort"
)

// Objective is a function to MAXIMIZE over a box.
type Objective func(x []float64) float64

// BatchObjective scores a block of points: it writes the value at every
// xs[j] into vals[j] (higher is better) and must not modify xs. A value may
// depend only on its own point, never on the rest of the block: the
// maximizer regroups evaluations freely, and that is what keeps its result
// independent of the grouping.
type BatchObjective func(xs [][]float64, vals []float64)

// Pointwise adapts a scalar objective to a BatchObjective that evaluates
// the block in order.
func Pointwise(f Objective) BatchObjective {
	return func(xs [][]float64, vals []float64) {
		for j, x := range xs {
			vals[j] = f(x)
		}
	}
}

// clampTo projects x into [lo, hi] in place.
func clampTo(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		}
		if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// NelderMeadOptions tunes the simplex search.
type NelderMeadOptions struct {
	MaxEvals int     // evaluation budget (default 80·d)
	InitStep float64 // initial simplex size as a fraction of the box (default 0.1)
	Tol      float64 // spread tolerance for early stop (default 1e-9)
}

// NelderMead maximizes f over the box [lo, hi] starting from x0 using the
// standard reflect/expand/contract/shrink simplex with projection onto the
// box. It returns the best point and value found.
func NelderMead(f Objective, x0, lo, hi []float64, opts NelderMeadOptions) ([]float64, float64) {
	best := refineLockstep(Pointwise(f), [][]float64{x0}, lo, hi, opts)[0]
	return best.x, best.v
}

// refineLockstep runs one Nelder–Mead search from each start, all in
// lockstep on the calling goroutine. Each round gathers the points every
// live search waits on (its trial point, or its initial or shrink points)
// into one block, evaluates the block with a single call to f, and hands
// each search its values. A search's trajectory depends only on the values
// of its own points, so every start ends exactly where a search of its own
// would. It returns each search's best vertex, in start order.
func refineLockstep(f BatchObjective, starts [][]float64, lo, hi []float64, opts NelderMeadOptions) []vertex {
	searches := make([]*simplexSearch, len(starts))
	for i, x0 := range starts {
		searches[i] = newSimplexSearch(x0, lo, hi, opts)
	}
	var block [][]float64
	var vals []float64
	for {
		block = block[:0]
		for _, s := range searches {
			block = append(block, s.pending...)
		}
		if len(block) == 0 {
			break
		}
		if cap(vals) < len(block) {
			vals = make([]float64, len(block))
		}
		vals = vals[:len(block)]
		f(block, vals)
		off := 0
		for _, s := range searches {
			if n := len(s.pending); n > 0 {
				s.step(vals[off : off+n])
				off += n
			}
		}
	}
	best := make([]vertex, len(searches))
	for i, s := range searches {
		best[i] = vertex{append([]float64(nil), s.simplex[0].x...), s.simplex[0].v}
	}
	return best
}

// vertex is a simplex vertex and its objective value.
type vertex struct {
	x []float64
	v float64
}

// nmPhase is what a simplexSearch's pending points are for.
type nmPhase int

const (
	nmInit nmPhase = iota
	nmReflect
	nmExpand
	nmContract
	nmShrink
)

// simplexSearch is the Nelder–Mead search as a step machine, so several
// searches can share one evaluation per round. pending lists the points
// whose values the next step needs; step consumes those values, applies
// the reflect/expand/contract/shrink rule, and queues the next points.
// Fed the values of its pending points in order, it makes exactly the
// decisions — and the evaluation count — of the textbook sequential loop:
//
//	evaluate the initial simplex; sort
//	while evals < MaxEvals and the value spread exceeds Tol:
//	    reflect the worst vertex through the centroid of the others
//	    better than the best → also try the expansion, keep the better
//	    better than the second worst → keep the reflection
//	    otherwise contract; no better than the worst → shrink every
//	        vertex toward the best, stopping once the budget is spent
//	    sort
type simplexSearch struct {
	lo, hi   []float64
	opts     NelderMeadOptions
	simplex  []vertex // sorted best first between steps
	centroid []float64
	refl     vertex
	phase    nmPhase
	pending  [][]float64
	evals    int
}

func newSimplexSearch(x0, lo, hi []float64, opts NelderMeadOptions) *simplexSearch {
	d := len(x0)
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 80 * d
	}
	if opts.InitStep <= 0 {
		opts.InitStep = 0.1
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	s := &simplexSearch{lo: lo, hi: hi, opts: opts,
		simplex: make([]vertex, d+1), centroid: make([]float64, d)}
	// Initial simplex: x0 plus a step along each axis.
	base := append([]float64(nil), x0...)
	clampTo(base, lo, hi)
	s.simplex[0].x = base
	for i := 0; i < d; i++ {
		x := append([]float64(nil), base...)
		step := opts.InitStep * (hi[i] - lo[i])
		if x[i]+step > hi[i] {
			step = -step
		}
		x[i] += step
		clampTo(x, lo, hi)
		s.simplex[i+1].x = x
	}
	for _, v := range s.simplex {
		s.pending = append(s.pending, v.x)
	}
	return s
}

// step consumes the values of the pending points, in order.
func (s *simplexSearch) step(vals []float64) {
	s.evals += len(vals)
	d := len(s.centroid)
	switch s.phase {
	case nmInit:
		for i, v := range vals {
			s.simplex[i].v = v
		}
	case nmShrink:
		for i, v := range vals {
			s.simplex[1+i].v = v
		}
	case nmReflect:
		s.refl = vertex{s.pending[0], vals[0]}
		switch {
		case s.refl.v > s.simplex[0].v:
			s.propose(nmExpand, 2.0)
			return
		case s.refl.v > s.simplex[d-1].v:
			s.simplex[d] = s.refl
		default:
			s.propose(nmContract, -0.5)
			return
		}
	case nmExpand:
		if exp := (vertex{s.pending[0], vals[0]}); exp.v > s.refl.v {
			s.simplex[d] = exp
		} else {
			s.simplex[d] = s.refl
		}
	case nmContract:
		if con := (vertex{s.pending[0], vals[0]}); con.v > s.simplex[d].v {
			s.simplex[d] = con
			break
		}
		// Shrink toward the best vertex. The sequential loop evaluates each
		// moved vertex in turn and stops once the budget is spent, so it
		// evaluates max(1, min(d, MaxEvals−evals)) of them; the rest keep
		// their old position and value.
		n := min(d, s.opts.MaxEvals-s.evals)
		n = max(1, n)
		s.pending = s.pending[:0]
		for i := 1; i <= n; i++ {
			x := s.simplex[i].x
			for j := range x {
				x[j] = s.simplex[0].x[j] + 0.5*(x[j]-s.simplex[0].x[j])
			}
			s.pending = append(s.pending, x)
		}
		s.phase = nmShrink
		return
	}
	// Sort descending by value (we maximize). sort.Slice is not stable, so
	// the order it leaves ties in is part of the trajectory.
	sort.Slice(s.simplex, func(a, b int) bool { return s.simplex[a].v > s.simplex[b].v })
	s.next()
}

// next starts the next iteration — or ends the search on budget or
// convergence — and queues the reflection of the worst vertex.
func (s *simplexSearch) next() {
	d := len(s.centroid)
	if s.evals >= s.opts.MaxEvals ||
		math.Abs(s.simplex[0].v-s.simplex[d].v) < s.opts.Tol*(1+math.Abs(s.simplex[0].v)) {
		s.pending = s.pending[:0] // done: nothing left to evaluate
		return
	}
	// Centroid of all but the worst.
	for j := range s.centroid {
		s.centroid[j] = 0
	}
	for i := 0; i < d; i++ {
		for j := range s.centroid {
			s.centroid[j] += s.simplex[i].x[j]
		}
	}
	for j := range s.centroid {
		s.centroid[j] /= float64(d)
	}
	s.propose(nmReflect, 1.0)
}

// propose queues the single trial point centroid + coef·(centroid − worst).
func (s *simplexSearch) propose(phase nmPhase, coef float64) {
	worst := s.simplex[len(s.centroid)].x
	x := make([]float64, len(s.centroid))
	for j := range x {
		x[j] = s.centroid[j] + coef*(s.centroid[j]-worst[j])
	}
	clampTo(x, s.lo, s.hi)
	s.pending = append(s.pending[:0], x)
	s.phase = phase
}

// MaximizeOptions tunes the global acquisition maximizer.
type MaximizeOptions struct {
	Candidates int // space-filling candidates (default 60·d, min 200)
	Refine     int // top candidates refined with Nelder-Mead (default 3)
	RefineEval int // simplex evaluation budget per refinement (default 40·d)
	// Workers is the number of goroutines sweeping the candidates
	// concurrently (default GOMAXPROCS), and the most lockstep groups the
	// refinements are dealt to while CPUs are idle. The result is
	// identical for every worker count: all randomness is drawn before
	// the fan-out and the reduction is order-independent. Set 1 to force
	// the serial path.
	Workers int
}

func (o *MaximizeOptions) defaults(d int) {
	if o.Candidates <= 0 {
		o.Candidates = 60 * d
		if o.Candidates < 200 {
			o.Candidates = 200
		}
	}
	if o.Refine <= 0 {
		o.Refine = 3
	}
	if o.RefineEval <= 0 {
		o.RefineEval = 40 * d
	}
}

// Maximize performs multi-start global maximization of f over [lo, hi]:
// a Latin-hypercube candidate sweep followed by simplex refinement of the
// best candidates. Deterministic given rng. Every evaluation runs on the
// calling goroutine, so f need not be safe for concurrent use; for a
// pure f it returns exactly what MaximizeParallel would for any worker
// count.
func Maximize(f Objective, lo, hi []float64, rng *rand.Rand, opts MaximizeOptions) ([]float64, float64) {
	opts.Workers = 1
	return MaximizeParallel(func() BatchObjective { return Pointwise(f) }, lo, hi, rng, opts)
}
