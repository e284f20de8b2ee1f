package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"easybo/internal/core"
	"easybo/internal/serve"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// replay re-derives a served session in process on core.AskTell, built the
// way the daemon builds a session (stats.LatinHypercube design, one rng,
// core.NewModelManager) from a config whose every value is explicit. It
// fails unless every replayed proposal equals the served one bit for bit:
// a replay that diverged would measure a different program.
//
// It returns one duration per event (ask → Suggest, tell → Observe), in
// log order. With a tracer, Suggest and Observe become core spans of
// request req, and the surrogate's Fit and WithPseudo their children.
func replay(cfg serve.SessionConfig, events []serve.Event, t *tracer, req string) ([]time.Duration, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := len(cfg.Lo)
	init := make([][]float64, 0, cfg.InitPoints)
	for _, u := range stats.LatinHypercube(rng, cfg.InitPoints, d) {
		x := make([]float64, d)
		for j := range x {
			x[j] = cfg.Lo[j] + u[j]*(cfg.Hi[j]-cfg.Lo[j])
		}
		init = append(init, x)
	}
	mm, err := core.NewModelManager(cfg.Lo, cfg.Hi, rng, core.ModelManagerOptions{
		RefitEvery: cfg.RefitEvery,
		FitIters:   cfg.FitIters,
		Backend:    surrogate.Backend(cfg.Surrogate),
		EscalateAt: cfg.EscalateAt,
	})
	if err != nil {
		return nil, err
	}
	var p *probe
	fit := mm.Fit
	if t != nil {
		p = &probe{t: t, req: req}
		fit = p.fit(mm.Fit)
	}
	at, err := core.NewAskTell(core.AskTellConfig{
		MaxEvals: cfg.MaxEvals,
		Init:     init,
		Lo:       cfg.Lo, Hi: cfg.Hi,
		Fit: fit,
		Proposer: &core.Proposer{
			Lambda:   cfg.Lambda,
			Penalize: cfg.Algorithm != "easybo-a",
		},
		Rng:            rng,
		Failure:        core.FailAbort,
		MaxFailures:    cfg.MaxFailures,
		MinFitObs:      2,
		RandomFallback: true,
	})
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, len(events))
	for i, ev := range events {
		var id int64
		var start int64
		if t != nil {
			id = t.ids.Add(1)
			p.parent = id
			start = t.now()
		}
		t0 := time.Now()
		switch ev.Kind {
		case "ask":
			prop, ok, err := at.Suggest()
			if err != nil || !ok {
				return out, fmt.Errorf("replay %s: event %d: no proposal (ok=%v, err=%v)", req, i, ok, err)
			}
			if !samePoint(prop.X, ev.X) {
				return out, fmt.Errorf("replay %s: event %d: proposal %v differs from served %v", req, i, prop.X, ev.X)
			}
		case "tell":
			if ev.Err != "" {
				return out, fmt.Errorf("replay %s: event %d: failed tell %q", req, i, ev.Err)
			}
			if err := at.Observe(ev.X, ev.Y, nil); err != nil {
				return out, fmt.Errorf("replay %s: event %d: %w", req, i, err)
			}
		default:
			return out, fmt.Errorf("replay %s: event %d: unexpected %q event", req, i, ev.Kind)
		}
		out = append(out, time.Since(t0))
		if t != nil {
			name := "Suggest"
			if ev.Kind == "tell" {
				name = "Observe"
			}
			t.record(span{ID: id, Layer: "core", Name: name, Req: req, Start: start, End: t.now()})
		}
	}
	return out, nil
}

// samePoint compares coordinates bit for bit.
func samePoint(a, b []float64) bool {
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
