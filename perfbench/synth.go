package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"easybo/internal/bo"
	"easybo/internal/objective"
	"easybo/internal/testbench"
)

// Per BO seed, the synthesis workload runs EasyBO and pBO at the paper's
// B=5 on the class-E power amplifier, two runs at a time.
const (
	synthBatch = 5
	synthJobs  = 2 // bo.Run calls in flight
)

type synthJob struct {
	algo bo.Algorithm
	seed int64
}

type synthOut struct {
	wall     time.Duration
	best     float64
	makespan float64
}

type synth struct {
	e    *env
	jobs []synthJob
	outs [][]synthOut // per pass, per job
}

func newSynth(e *env) workload {
	s := &synth{e: e}
	for _, seed := range sessionSeeds(e.seed, size.synthSeeds) {
		for _, a := range []bo.Algorithm{bo.AlgoEasyBO, bo.AlgoPBO} {
			s.jobs = append(s.jobs, synthJob{a, seed})
		}
	}
	return s
}

// setup runs one short warm-up synthesis, which compiles the circuit and
// warms the optimizer's code paths.
func (s *synth) setup() error {
	h, err := bo.Run(testbench.ClassE(), bo.Config{Algo: bo.AlgoEasyBO, BatchSize: synthBatch, InitPoints: size.synthInit, MaxEvals: size.synthWarm, Seed: warmSeed})
	if err != nil {
		return err
	}
	if math.IsNaN(h.BestY) || math.IsInf(h.BestY, 0) {
		return fmt.Errorf("warm-up synthesis: best FOM %g", h.BestY)
	}
	return nil
}

func (s *synth) teardown() {}

func (s *synth) pass(i int, traced bool) (passResult, error) {
	t := s.e.tr.Load()
	if !traced {
		t = nil
	}
	outs := make([]synthOut, len(s.jobs))
	errs := make([]error, len(s.jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < synthJobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				outs[k], errs[k] = s.runJob(k, t)
			}
		}()
	}
	for k := range s.jobs {
		next <- k
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return passResult{}, err
	}
	s.outs = append(s.outs, outs)
	var ops []float64
	var best []float64
	for k, o := range outs {
		ops = append(ops, ms(o.wall))
		if s.jobs[k].algo == bo.AlgoEasyBO {
			best = append(best, o.best)
		}
	}
	return passResult{wall: wall, ops: ops, best: mean(best), heap: liveHeapMB(), total: wall}, nil
}

// runJob runs one bo.Run; with a tracer the run is a bo span and every
// simulation a testbench span beneath it.
func (s *synth) runJob(k int, t *tracer) (synthOut, error) {
	j := s.jobs[k]
	s.e.c.attempted.Add(1)
	var p *objective.Problem = testbench.ClassE()
	var id, st int64
	req := fmt.Sprintf("%s-%d", j.algo, j.seed)
	if t != nil {
		id = t.ids.Add(1)
		p = tracedProblem(p, t, req, id)
		st = t.now()
	}
	start := time.Now()
	h, err := bo.Run(p, bo.Config{Algo: j.algo, BatchSize: synthBatch, InitPoints: size.synthInit, MaxEvals: size.synthEvals, Seed: j.seed})
	wall := time.Since(start)
	if t != nil {
		t.record(span{ID: id, Layer: "bo", Name: "Run", Req: req, Start: st, End: t.now()})
	}
	if err != nil {
		s.e.c.failed.Add(1)
		return synthOut{}, fmt.Errorf("%s: %w", req, err)
	}
	return synthOut{wall: wall, best: h.BestY, makespan: h.Makespan}, nil
}

// check requires every best FOM to be finite and every pass to reproduce
// the first one's FOMs and makespans exactly.
func (s *synth) check() error {
	for p, outs := range s.outs {
		for k, o := range outs {
			j := s.jobs[k]
			if math.IsNaN(o.best) || math.IsInf(o.best, 0) {
				return fmt.Errorf("%s seed %d: best FOM %g", j.algo, j.seed, o.best)
			}
			if f := s.outs[0][k]; math.Float64bits(o.best) != math.Float64bits(f.best) || math.Float64bits(o.makespan) != math.Float64bits(f.makespan) {
				return fmt.Errorf("%s seed %d: pass %d found FOM %v (makespan %v), pass 0 found %v (%v)", j.algo, j.seed, p, o.best, o.makespan, f.best, f.makespan)
			}
		}
	}
	return nil
}

// makespanRatio is the paper's speed-up column: mean pBO virtual makespan
// over mean EasyBO virtual makespan.
func (s *synth) makespanRatio() float64 {
	var easy, pbo []float64
	for k, o := range s.outs[0] {
		if s.jobs[k].algo == bo.AlgoEasyBO {
			easy = append(easy, o.makespan)
		} else {
			pbo = append(pbo, o.makespan)
		}
	}
	return mean(pbo) / mean(easy)
}

func (s *synth) extra() map[string]any {
	return map[string]any{
		"bo_seeds": size.synthSeeds, "batch": synthBatch, "evals": size.synthEvals, "jobs_in_flight": synthJobs,
		"makespan_ratio": s.makespanRatio(),
	}
}

func (s *synth) layers(m map[string]metric, tp passResult) {
	t := s.e.tr.Load()
	evals := t.find("testbench", "Eval")
	var evalMs []float64
	perJob := map[int64]time.Duration{}
	var busy time.Duration
	for _, e := range evals {
		evalMs = append(evalMs, ms(e.dur()))
		perJob[e.Parent] += e.dur()
		busy += e.dur()
	}
	var optimizer time.Duration
	for _, r := range t.find("bo", "Run") {
		optimizer += r.dur() - perJob[r.ID]
	}
	capacity := tp.wall.Seconds() * synthJobs
	setMetric(m, "testbench.evals", float64(len(evals)))
	setMetric(m, "testbench.eval_ms_p50", median(evalMs))
	setMetric(m, "testbench.busy_share", busy.Seconds()/capacity)
	setMetric(m, "bo.optimizer_s", optimizer.Seconds())
	setMetric(m, "bo.classe_fom", tp.best)
	setMetric(m, "bo.makespan_ratio", s.makespanRatio())
	setMetric(m, "trace.accounted_share", (busy+optimizer).Seconds()/capacity)
}
