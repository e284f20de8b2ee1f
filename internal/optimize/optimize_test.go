package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// negSphere peaks at the box midpoint c with value 0.
func negSphere(c []float64) Objective {
	return func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - c[i]
			s += d * d
		}
		return -s
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	lo := []float64{-5, -5, -5}
	hi := []float64{5, 5, 5}
	c := []float64{1.2, -0.7, 3.3}
	x, v := NelderMead(negSphere(c), []float64{0, 0, 0}, lo, hi, NelderMeadOptions{MaxEvals: 2000})
	if v < -1e-6 {
		t.Fatalf("NelderMead value %v", v)
	}
	for i := range x {
		if math.Abs(x[i]-c[i]) > 1e-3 {
			t.Fatalf("NelderMead x = %v, want %v", x, c)
		}
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Optimum outside the box: solution must sit on the boundary.
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	c := []float64{2, 0.5}
	x, _ := NelderMead(negSphere(c), []float64{0.5, 0.5}, lo, hi, NelderMeadOptions{MaxEvals: 1000})
	if x[0] < 0 || x[0] > 1 || x[1] < 0 || x[1] > 1 {
		t.Fatalf("out of bounds: %v", x)
	}
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-0.5) > 1e-2 {
		t.Fatalf("boundary optimum missed: %v", x)
	}
}

func TestMaximizeFindsGlobalAmongLocals(t *testing.T) {
	// f has a local bump at 0.2 (height 1) and global bump at 0.8 (height 2).
	f := func(x []float64) float64 {
		b1 := math.Exp(-100 * (x[0] - 0.2) * (x[0] - 0.2))
		b2 := 2 * math.Exp(-100*(x[0]-0.8)*(x[0]-0.8))
		return b1 + b2
	}
	rng := rand.New(rand.NewSource(42))
	x, v := Maximize(f, []float64{0}, []float64{1}, rng, MaximizeOptions{})
	if math.Abs(x[0]-0.8) > 0.01 || v < 1.99 {
		t.Fatalf("global optimum missed: x=%v v=%v", x, v)
	}
}

func TestMaximizeInBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		lo := make([]float64, d)
		hi := make([]float64, d)
		c := make([]float64, d)
		for i := range lo {
			lo[i] = -1 - r.Float64()
			hi[i] = 1 + r.Float64()
			c[i] = lo[i] + r.Float64()*(hi[i]-lo[i])
		}
		x, _ := Maximize(negSphere(c), lo, hi, rng, MaximizeOptions{Candidates: 100, RefineEval: 50})
		for i := range x {
			if x[i] < lo[i]-1e-12 || x[i] > hi[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximizeDeterministicGivenSeed(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(5*x[0]) * math.Cos(3*x[1]) }
	lo := []float64{0, 0}
	hi := []float64{3, 3}
	x1, v1 := Maximize(f, lo, hi, rand.New(rand.NewSource(9)), MaximizeOptions{})
	x2, v2 := Maximize(f, lo, hi, rand.New(rand.NewSource(9)), MaximizeOptions{})
	if v1 != v2 || x1[0] != x2[0] || x1[1] != x2[1] {
		t.Fatal("Maximize not deterministic for fixed seed")
	}
}

func TestDESphere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo := []float64{-5, -5, -5, -5}
	hi := []float64{5, 5, 5, 5}
	c := []float64{1, 2, -3, 0.5}
	res := DE(negSphere(c), lo, hi, rng, DEOptions{PopSize: 30, MaxEvals: 6000}, nil)
	if res.Y < -1e-3 {
		t.Fatalf("DE best %v", res.Y)
	}
	if res.Evals != 6000 {
		t.Fatalf("DE evals = %d", res.Evals)
	}
}

func TestDERosenbrock(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return -(a*a + 100*b*b)
	}
	lo := []float64{-2, -2}
	hi := []float64{2, 2}
	res := DE(f, lo, hi, rng, DEOptions{PopSize: 40, MaxEvals: 8000}, nil)
	if res.Y < -1e-4 {
		t.Fatalf("DE Rosenbrock best %v at %v", res.Y, res.X)
	}
}

func TestDEOnEvalCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	count := 0
	var lastY float64
	DE(negSphere([]float64{0}), []float64{-1}, []float64{1}, rng,
		DEOptions{PopSize: 10, MaxEvals: 100},
		func(x []float64, y float64) {
			count++
			lastY = y
			if len(x) != 1 {
				t.Fatal("bad x in callback")
			}
		})
	if count != 100 {
		t.Fatalf("callback count = %d, want 100", count)
	}
	if lastY > 0 {
		t.Fatal("impossible objective value")
	}
}

func TestDERespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	DE(func(x []float64) float64 {
		for i := range x {
			if x[i] < lo[i] || x[i] > hi[i] {
				t.Fatalf("DE evaluated out of bounds: %v", x)
			}
		}
		return x[0] + x[1]
	}, lo, hi, rng, DEOptions{PopSize: 12, MaxEvals: 500}, nil)
}

// TestMaximizeParallelDeterministicAcrossWorkers pins the parallel
// multistart's core guarantee: the result is bit-identical for every worker
// count, because all randomness is drawn before the fan-out and the
// reduction is order-independent.
func TestMaximizeParallelDeterministicAcrossWorkers(t *testing.T) {
	f := func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - 0.3*float64(i+1)
			s -= d * d
		}
		return s + 0.05*math.Sin(40*x[0])
	}
	lo := []float64{-1, -1, -1}
	hi := []float64{2, 2, 2}
	var refX []float64
	refV := 0.0
	for _, workers := range []int{1, 2, 3, 7, 8, 16} {
		rng := rand.New(rand.NewSource(42))
		x, v := MaximizeParallel(func() BatchObjective { return Pointwise(f) }, lo, hi, rng,
			MaximizeOptions{Candidates: 120, Refine: 4, Workers: workers})
		if refX == nil {
			refX, refV = x, v
			continue
		}
		if v != refV {
			t.Fatalf("workers=%d: value %v != reference %v", workers, v, refV)
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("workers=%d: x[%d] = %v != reference %v", workers, i, x[i], refX[i])
			}
		}
	}
	if refV < -0.2 {
		t.Fatalf("optimum quality too poor: %v", refV)
	}
}

// TestMaximizeMatchesParallelSerial pins the Maximize wrapper to the
// factory-based entry point.
func TestMaximizeMatchesParallelSerial(t *testing.T) {
	f := func(x []float64) float64 { return -(x[0]-0.5)*(x[0]-0.5) - x[1]*x[1] }
	lo := []float64{-1, -1}
	hi := []float64{1, 1}
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	x1, v1 := Maximize(f, lo, hi, r1, MaximizeOptions{Candidates: 80, Workers: 1})
	x2, v2 := MaximizeParallel(func() BatchObjective { return Pointwise(f) }, lo, hi, r2,
		MaximizeOptions{Candidates: 80, Workers: 4})
	if v1 != v2 || x1[0] != x2[0] || x1[1] != x2[1] {
		t.Fatalf("serial (%v,%v) vs parallel (%v,%v)", x1, v1, x2, v2)
	}
}

// nmStats counts what a reference search did.
type nmStats struct {
	evals, shrinks, cutShrinks int
}

// nelderMeadReference is the sequential Nelder–Mead loop the step machine
// replaced, kept verbatim (plus counters) as the oracle for its bits.
func nelderMeadReference(f Objective, x0, lo, hi []float64, opts NelderMeadOptions) ([]float64, float64, nmStats) {
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
	var st nmStats
	eval := func(x []float64) float64 {
		st.evals++
		return f(x)
	}
	type vtx struct {
		x []float64
		v float64
	}
	simplex := make([]vtx, d+1)
	base := append([]float64(nil), x0...)
	clampTo(base, lo, hi)
	simplex[0] = vtx{base, eval(base)}
	for i := 0; i < d; i++ {
		x := append([]float64(nil), base...)
		step := opts.InitStep * (hi[i] - lo[i])
		if x[i]+step > hi[i] {
			step = -step
		}
		x[i] += step
		clampTo(x, lo, hi)
		simplex[i+1] = vtx{x, eval(x)}
	}
	sortSimplex := func() {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].v > simplex[b].v })
	}
	sortSimplex()
	centroid := make([]float64, d)
	for st.evals < opts.MaxEvals {
		if math.Abs(simplex[0].v-simplex[d].v) < opts.Tol*(1+math.Abs(simplex[0].v)) {
			break
		}
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < d; i++ {
			for j := range centroid {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(d)
		}
		worst := simplex[d]
		moved := func(coef float64) vtx {
			x := make([]float64, d)
			for j := range x {
				x[j] = centroid[j] + coef*(centroid[j]-worst.x[j])
			}
			clampTo(x, lo, hi)
			return vtx{x, eval(x)}
		}
		refl := moved(1.0)
		switch {
		case refl.v > simplex[0].v:
			exp := moved(2.0)
			if exp.v > refl.v {
				simplex[d] = exp
			} else {
				simplex[d] = refl
			}
		case refl.v > simplex[d-1].v:
			simplex[d] = refl
		default:
			con := moved(-0.5)
			if con.v > worst.v {
				simplex[d] = con
			} else {
				st.shrinks++
				for i := 1; i <= d; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + 0.5*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].v = eval(simplex[i].x)
					if st.evals >= opts.MaxEvals {
						if i < d {
							st.cutShrinks++
						}
						break
					}
				}
			}
		}
		sortSimplex()
	}
	return append([]float64(nil), simplex[0].x...), simplex[0].v, st
}

// terraced is a staircase with a gentle tilt: the flat treads tie vertex
// values (so the unstable sort's tie order matters) and defeat most
// contractions, which makes the simplex shrink often.
func terraced(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += math.Floor(4*v) - 0.01*float64(i+1)*v*v
	}
	return s
}

// sameVertex fails unless got is want bit for bit.
func sameVertex(t *testing.T, got, want vertex, what string, d, budget, start int) {
	t.Helper()
	if math.Float64bits(got.v) != math.Float64bits(want.v) {
		t.Fatalf("%s d=%d budget=%d start %d: value %v, sequential %v", what, d, budget, start, got.v, want.v)
	}
	for j := range want.x {
		if math.Float64bits(got.x[j]) != math.Float64bits(want.x[j]) {
			t.Fatalf("%s d=%d budget=%d start %d: x %v, sequential %v", what, d, budget, start, got.x, want.x)
		}
	}
}

// TestLockstepRefineMatchesSequential pins the lockstep refiners to the
// sequential search they replaced: however the starts are dealt to
// lockstep groups, every start ends on the same point and value, bit for
// bit, and the evaluations add up. The budgets run out in every phase,
// including in the middle of a shrink.
func TestLockstepRefineMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var shrinks, cutShrinks int
	for _, d := range []int{1, 2, 3, 6} {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := range hi {
			lo[i], hi[i] = -1, 1.5
		}
		for _, f := range []Objective{terraced, negSphere(make([]float64, d))} {
			for budget := d + 1; budget <= 30*d; budget += 1 + d/2 {
				starts := make([][]float64, 3)
				for i := range starts {
					starts[i] = make([]float64, d)
					for j := range starts[i] {
						starts[i][j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
					}
				}
				opts := NelderMeadOptions{MaxEvals: budget}
				want := make([]vertex, len(starts))
				wantEvals := 0
				for i, x0 := range starts {
					wx, wv, st := nelderMeadReference(f, x0, lo, hi, opts)
					want[i] = vertex{wx, wv}
					wantEvals += st.evals
					shrinks += st.shrinks
					cutShrinks += st.cutShrinks
					sx, sv := NelderMead(f, x0, lo, hi, opts)
					sameVertex(t, vertex{sx, sv}, want[i], "NelderMead", d, budget, i)
				}
				for groups := 1; groups <= len(starts); groups++ {
					var calls atomic.Int64
					counted := func() BatchObjective {
						return Pointwise(func(x []float64) float64 {
							calls.Add(1)
							return f(x)
						})
					}
					got := refineGroups(counted(), counted, starts, groups, lo, hi, opts)
					for i := range starts {
						sameVertex(t, got[i], want[i], fmt.Sprintf("%d lockstep groups", groups), d, budget, i)
					}
					if n := int(calls.Load()); n != wantEvals {
						t.Fatalf("d=%d budget=%d groups=%d: %d evaluations, sequential searches made %d",
							d, budget, groups, n, wantEvals)
					}
				}
			}
		}
	}
	if shrinks == 0 || cutShrinks == 0 {
		t.Fatalf("objectives never exercised the shrink (%d) or a budget-cut shrink (%d)", shrinks, cutShrinks)
	}
}

// TestMaximizeParallelConcurrentCallsAgree runs several maximizations at
// once, so some find every CPU taken and refine in one lockstep group while
// others spread over more: all must return the serial result bit for bit.
func TestMaximizeParallelConcurrentCallsAgree(t *testing.T) {
	lo := []float64{-1, -1, -1}
	hi := []float64{2, 2, 2}
	opts := MaximizeOptions{Candidates: 120, Refine: 3, Workers: 1}
	wantX, wantV := Maximize(terraced, lo, hi, rand.New(rand.NewSource(9)), opts)
	opts.Workers = 2
	const calls = 6
	got := make([]vertex, calls)
	var wg sync.WaitGroup
	for c := 0; c < calls; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x, v := MaximizeParallel(func() BatchObjective { return Pointwise(terraced) },
				lo, hi, rand.New(rand.NewSource(9)), opts)
			got[c] = vertex{x, v}
		}(c)
	}
	wg.Wait()
	for c, r := range got {
		sameVertex(t, r, vertex{wantX, wantV}, fmt.Sprintf("concurrent call %d", c), len(lo), 0, 0)
	}
}
