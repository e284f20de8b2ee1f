package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"easybo/internal/objective"
	"easybo/internal/serve"
)

// Fixed sizes. The objective is Hartmann-6 on the unit box: cheap, so the
// daemon's work is what is measured.
const (
	dim      = 6
	sessions = 2 // one closed-loop client and one connection each
	initPts  = 20
	warmSeed = 0x5eed // seed of the warm-up work, the same in every run
)

// size is the fixed work of each workload; tests shrink it.
var size = struct {
	boAsks, boWarm        int // asks per session in a serve-bo pass; warm-up asks
	walAsks, walWarm      int // the same for serve-wal
	recAsks, recResume    int // history per session to recover; asks served after it
	synthSeeds            int // BO seeds per synth-classe pass (one EasyBO and one pBO run each)
	synthInit             int // initial design of each run
	synthEvals, synthWarm int // simulations per run; in the warm-up run
}{
	boAsks: 102, boWarm: 25,
	walAsks: 1000, walWarm: 400,
	recAsks: 100, recResume: 40,
	synthSeeds: 7, synthInit: 20, synthEvals: 60, synthWarm: 25,
}

var hartmann = objective.Hartmann6()

// sessionSeeds derives the per-session seeds from the workload seed.
func sessionSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// sessionConfig spells out every value, so the in-process replay builds
// exactly the machine the daemon builds.
func sessionConfig(seed int64, surrogate string, init int) serve.SessionConfig {
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range hi {
		hi[i] = 1
	}
	return serve.SessionConfig{
		Lo: lo, Hi: hi,
		Algorithm:  "easybo",
		InitPoints: init,
		Seed:       seed,
		Lambda:     6,
		RefitEvery: 5,
		FitIters:   40,
		Surrogate:  surrogate,
		EscalateAt: 500,
		Failure:    "abort",
	}
}

// opsOf returns the steady-state cycle latencies of some runs in ms, the
// summed latency of all their requests, and their mean best value.
func opsOf(runs []*sessionRun) (ops []float64, total time.Duration, best float64) {
	for _, r := range runs {
		for _, c := range r.cycles {
			ops = append(ops, ms(c))
		}
		for _, q := range r.reqs {
			total += q
		}
		best += r.best / float64(len(runs))
	}
	return ops, total, best
}

// ------------------------------------------------------------- serve-bo

type serveBO struct {
	server
	cfgs    []serve.SessionConfig
	history [][]serve.Event   // the first pass's served logs
	traced  []*sessionRun     // the traced pass's client view
	tids    []string          // the traced pass's session ids
	replays [][]time.Duration // per session, one duration per replayed event
}

func newServeBO(e *env) workload {
	b := &serveBO{server: server{e: e}}
	for _, s := range sessionSeeds(e.seed, sessions) {
		b.cfgs = append(b.cfgs, sessionConfig(s, "features", initPts))
	}
	return b
}

// setup boots the daemon and serves one short warm-up session, so the
// first timed pass does not pay for cold code paths and heap growth.
func (b *serveBO) setup() error {
	if err := b.start(nil, true); err != nil {
		return err
	}
	return b.warmUp(sessionConfig(warmSeed, "features", initPts), size.boWarm)
}

func (b *serveBO) teardown() { b.stop() }

func (b *serveBO) pass(i int, traced bool) (passResult, error) {
	ids := make([]string, sessions)
	for j := range ids {
		ids[j] = fmt.Sprintf("bo-p%d-s%d", i, j)
	}
	if err := b.create(ids, b.cfgs); err != nil {
		return passResult{}, err
	}
	runs, wall, err := driveAll(b.cls, ids, size.boAsks, hartmann.Eval, b.cfgs[0].Lo, b.cfgs[0].Hi)
	if err != nil {
		return passResult{}, err
	}
	heap := liveHeapMB()
	for j, id := range ids {
		snap, err := b.cls[j].snapshot(id)
		if err != nil {
			return passResult{}, err
		}
		if len(b.history) <= j {
			b.history = append(b.history, snap.Events)
		} else if err := sameEvents(b.history[j], snap.Events); err != nil {
			return passResult{}, fmt.Errorf("session %s repeats the first pass's session differently: %w", id, err)
		}
		if _, err := b.cls[j].call(http.MethodDelete, "/sessions/"+id, nil, nil); err != nil {
			return passResult{}, err
		}
	}
	if traced {
		b.traced, b.tids = runs, ids
	}
	ops, total, best := opsOf(runs)
	return passResult{wall: wall, ops: ops, best: best, heap: heap, total: total}, nil
}

// check replays every served session in process, both at once as they
// were served; every replayed proposal must equal the served one.
func (b *serveBO) check() error {
	t := b.e.tr.Load()
	b.replays = make([][]time.Duration, len(b.history))
	errs := make([]error, len(b.history))
	var wg sync.WaitGroup
	for j := range b.history {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.replays[j], errs[j] = replay(b.cfgs[j], b.history[j], t, fmt.Sprintf("s%d", j))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *serveBO) extra() map[string]any {
	return map[string]any{"asks_per_session": size.boAsks, "sessions": sessions, "surrogate": "features"}
}

func (b *serveBO) layers(m map[string]metric, tp passResult) {
	t := b.e.tr.Load()
	served := servedLayers(t, m, b.tids, b.traced, b.replays)
	replayLayers(t, m)
	setMetric(m, "trace.accounted_share", served/ms(tp.total))
}

// sameEvents compares two event logs bit for bit.
func sameEvents(a, b []serve.Event) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d events vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ID != b[i].ID || !samePoint(a[i].X, b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return fmt.Errorf("event %d differs", i)
		}
	}
	return nil
}
