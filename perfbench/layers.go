package main

import (
	"sort"
	"time"
)

// servedLayers splits each traced request into transport (client latency
// minus the handler span), store calls, the replayed core call (when core
// is given, matched by the request's position in its session's log) and
// the serve layer's own time (the rest of the handler span). It sets the
// serve and wal request metrics and returns the accounted time in ms: the
// measured layers plus the residual layers clamped at zero.
func servedLayers(t *tracer, m map[string]metric, ids []string, runs []*sessionRun, core [][]time.Duration) float64 {
	store := t.childTime("wal", "Append", "WaitDurable", "BeginCompact")
	var askSelf, tellSelf, transport []float64
	accounted := 0.0
	for j, id := range ids {
		var spans []span
		for _, name := range []string{"ask", "tell"} {
			for _, s := range t.find("serve", name) {
				if s.Req == id {
					spans = append(spans, s)
				}
			}
		}
		sortSpans(spans)
		for k, s := range spans {
			if k >= len(runs[j].reqs) {
				break
			}
			var c time.Duration
			if core != nil && k < len(core[j]) {
				c = core[j][k]
			}
			self, tr, acc := splitRequest(runs[j].reqs[k], s.dur(), store[s.ID], c)
			if s.Name == "ask" {
				askSelf = append(askSelf, self)
			} else {
				tellSelf = append(tellSelf, self)
			}
			transport = append(transport, tr)
			accounted += acc
		}
	}
	setMetric(m, "serve.ask_self_ms_p50", median(askSelf))
	setMetric(m, "serve.tell_self_ms_p50", median(tellSelf))
	setMetric(m, "serve.http_ms_p50", median(transport))
	walLayers(t, m)
	return accounted
}

// walLayers sets the metrics of the store calls the tracer saw.
func walLayers(t *tracer, m map[string]metric) {
	var appends []float64
	for _, s := range t.find("wal", "Append") {
		appends = append(appends, float64(s.dur())/float64(time.Microsecond))
	}
	setMetric(m, "wal.appends", float64(len(appends)))
	if len(appends) > 0 {
		setMetric(m, "wal.append_us_p50", median(appends))
	}
	setMetric(m, "wal.compactions", float64(len(t.find("wal", "CommitCompact"))))
	setMetric(m, "wal.compact_ms_total", t.totalMs("wal", "CommitCompact"))
	setMetric(m, "wal.load_ms_total", t.totalMs("wal", "LoadSession"))
	setMetric(m, "wal.list_ms", t.totalMs("wal", "List"))
}

// replayLayers sets the core, surrogate and acquisition metrics of the
// in-process replay. A model-driven Suggest is one with a Fit child; its
// acquisition maximization is what remains after Fit and WithPseudo.
func replayLayers(t *tracer, m map[string]metric) {
	fit := t.childTime("surrogate", "Fit")
	pseudo := t.childTime("surrogate", "WithPseudo")
	var suggest, maximize, observe []float64
	for _, s := range t.find("core", "Suggest") {
		suggest = append(suggest, ms(s.dur()))
		if f, ok := fit[s.ID]; ok {
			maximize = append(maximize, ms(s.dur()-f-pseudo[s.ID]))
		}
	}
	for _, s := range t.find("core", "Observe") {
		observe = append(observe, float64(s.dur())/float64(time.Microsecond))
	}
	if len(suggest) == 0 {
		return
	}
	setMetric(m, "core.suggest_ms_p50", median(suggest))
	setMetric(m, "core.suggest_ms_p95", percentile(suggest, tailOf(len(suggest), 95)))
	setMetric(m, "core.observe_us_p50", median(observe))
	fits := t.find("surrogate", "Fit")
	maxFit := 0.0
	for _, s := range fits {
		if v := ms(s.dur()); v > maxFit {
			maxFit = v
		}
	}
	setMetric(m, "surrogate.fit_calls", float64(len(fits)))
	setMetric(m, "surrogate.fit_ms_total", t.totalMs("surrogate", "Fit"))
	setMetric(m, "surrogate.fit_ms_max", maxFit)
	setMetric(m, "surrogate.pseudo_ms_total", t.totalMs("surrogate", "WithPseudo"))
	if n := t.predicts.Load(); n > 0 && len(maximize) > 0 {
		setMetric(m, "surrogate.predicts_per_ask", float64(n)/float64(len(maximize)))
		setMetric(m, "surrogate.predict_ns", float64(t.predictNs.Load())/float64(n))
	}
	if len(maximize) > 0 {
		setMetric(m, "acq.maximize_ms_p50", median(maximize))
	}
}

// tailOf is the percentile to report for a wanted tail: the wanted one, or
// a lower one when n is too small for minBeyond samples beyond it.
func tailOf(n int, want float64) float64 {
	if p := tailPercentile(n); p < want {
		return p
	}
	return want
}

// splitRequest attributes one request's client latency, in ms. The
// handler span, the store calls inside it and the replayed core call are
// measured; transport (client minus handler) and the serve layer's own
// time (handler minus store and core) are what remains at each level.
// accounted sums the measured layers and the remainders clamped at zero,
// so it exceeds the client latency exactly when the measured layers do.
func splitRequest(client, handler, store, core time.Duration) (self, transport, accounted float64) {
	self = ms(handler - store - core)
	transport = ms(client - handler)
	return self, transport, ms(store+core) + clamp0(self) + clamp0(transport)
}

// account is the share of total explained by measured layer time plus
// the unmeasured remainder clamped at zero: 1 when the measured layers fit
// inside the total, above 1 by as much as they overrun it.
func account(total float64, measured ...float64) float64 {
	m := sum(measured)
	return (m + clamp0(total-m)) / total
}

func clamp0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func sortSpans(s []span) { sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start }) }
