package surrogate_test

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/acq"
	"easybo/internal/gp"
	"easybo/internal/optimize"
	"easybo/internal/surrogate"
)

// TestMaximizeParallelBatchedMatchesPointwise pins the batched acquisition
// maximizer on both backends: for every worker count the block-scored
// maximization returns, bit for bit, the point and value of the same
// maximization scored one Predict at a time.
func TestMaximizeParallelBatchedMatchesPointwise(t *testing.T) {
	x, y, lo, hi := benchData(40)
	em, err := gp.Train(x, y, lo, hi, nil,
		&gp.TrainOptions{FixedTheta: benchTheta(), FixedNoise: benchLogNoise})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := surrogate.FitFeatures(x, y, lo, hi, benchTheta(), benchLogNoise,
		rand.New(rand.NewSource(1)), 64)
	if err != nil {
		t.Fatal(err)
	}
	opts := optimize.MaximizeOptions{Candidates: 150, Refine: 3, RefineEval: 90}
	for _, s := range []surrogate.Surrogate{surrogate.NewExact(em), fm} {
		for _, a := range []acq.Func{acq.Weighted{W: 0.4}, acq.EI{Best: 1}} {
			wantX, wantV := optimize.MaximizeParallel(func() optimize.BatchObjective {
				p := s.StandardizedPredictor()
				return optimize.Pointwise(func(q []float64) float64 { return a.Score(p.Predict(q)) })
			}, lo, hi, rand.New(rand.NewSource(5)), opts)
			for _, workers := range []int{1, 2, 3, 8} {
				o := opts
				o.Workers = workers
				gotX, gotV := optimize.MaximizeParallel(func() optimize.BatchObjective {
					return acq.Batch(a, s.StandardizedPredictor())
				}, lo, hi, rand.New(rand.NewSource(5)), o)
				if math.Float64bits(gotV) != math.Float64bits(wantV) {
					t.Fatalf("%T %s workers=%d: value %v, pointwise %v", s, a.Name(), workers, gotV, wantV)
				}
				for j := range wantX {
					if math.Float64bits(gotX[j]) != math.Float64bits(wantX[j]) {
						t.Fatalf("%T %s workers=%d: x %v, pointwise %v", s, a.Name(), workers, gotX, wantX)
					}
				}
			}
		}
	}
}
