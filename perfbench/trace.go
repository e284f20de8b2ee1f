package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"easybo/internal/objective"
	"easybo/internal/serve"
	"easybo/internal/surrogate"
)

// The tracer times calls into the program's layers from outside: a
// wrapper around the HTTP handler, a serve.Store wrapper, a wrapped
// objective, and an in-process replay of each served session whose
// surrogate is wrapped. Nothing inside the program is instrumented.
// Spans stay in memory and are written out once, when the run ends.

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	base time.Time
	ids  atomic.Int64

	mu    sync.Mutex
	spans []span
	open  map[string]int64 // session id -> its in-flight handler span

	// Predictions are too many to keep as spans; they are counted and
	// timed at the predictor boundary instead.
	predicts  atomic.Int64
	predictNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record stores a finished span, assigning its ID unless it has one.
func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// find returns the recorded spans of one layer and name, in record order.
func (t *tracer) find(layer, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// totalMs sums the durations of the spans of one layer and name.
func (t *tracer) totalMs(layer, name string) float64 {
	var tot time.Duration
	for _, s := range t.find(layer, name) {
		tot += s.dur()
	}
	return ms(tot)
}

// childTime sums the durations of the given parent's children per parent.
func (t *tracer) childTime(layer string, names ...string) map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Layer != layer || s.Parent == 0 {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				out[s.Parent] += s.dur()
			}
		}
	}
	return out
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) setOpen(session string, id int64) {
	t.mu.Lock()
	if id == 0 {
		delete(t.open, session)
	} else {
		t.open[session] = id
	}
	t.mu.Unlock()
}

func (t *tracer) openSpan(session string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[session]
}

// ------------------------------------------------------------- serve layer

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handler times every ask and tell the serve.Server answers. Each session
// has one closed-loop client, so a session has at most one request in
// flight and the store calls made meanwhile belong to it.
func tracedHandler(h http.Handler, tr *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
		if t == nil || len(parts) != 3 || parts[0] != "sessions" || (parts[2] != "ask" && parts[2] != "tell") {
			h.ServeHTTP(w, r)
			return
		}
		id := t.ids.Add(1)
		t.setOpen(parts[1], id)
		start := t.now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		end := t.now()
		t.setOpen(parts[1], 0)
		if sw.code == http.StatusOK {
			t.record(span{ID: id, Layer: "serve", Name: parts[2], Req: parts[1], Start: start, End: end})
		}
	})
}

// -------------------------------------------------------------- wal layer

// store wraps a serve.Store. It always tracks compaction commits in
// flight, so a caller can wait for the store to be quiet before copying or
// reopening its files; with a tracer it also times every call.
type store struct {
	serve.Store
	tr      *atomic.Pointer[tracer] // nil or holding nil: untimed
	commits sync.WaitGroup
}

func newStore(inner serve.Store, tr *atomic.Pointer[tracer]) *store {
	return &store{Store: inner, tr: tr}
}

func (s *store) tracer() *tracer {
	if s.tr == nil {
		return nil
	}
	return s.tr.Load()
}

func (s *store) timed(name, req string, parent int64, f func()) {
	t := s.tracer()
	if t == nil {
		f()
		return
	}
	start := t.now()
	f()
	t.record(span{Parent: parent, Layer: "wal", Name: name, Req: req, Start: start, End: t.now()})
}

func (s *store) Begin(id string, cfg serve.SessionConfig) (serve.SessionLog, error) {
	l, err := s.Store.Begin(id, cfg)
	if err != nil {
		return nil, err
	}
	return &sessionLog{SessionLog: l, st: s, id: id}, nil
}

func (s *store) List() (ids []string, err error) {
	s.timed("List", "", 0, func() { ids, err = s.Store.List() })
	return ids, err
}

func (s *store) LoadSession(id string) (ps serve.PersistedSession, err error) {
	s.timed("LoadSession", id, 0, func() { ps, err = s.Store.LoadSession(id) })
	if err == nil && ps.Log != nil {
		ps.Log = &sessionLog{SessionLog: ps.Log, st: s, id: id}
	}
	return ps, err
}

// SyncStats forwards the wrapped store's group-commit counters, which the
// server reads through this optional method.
func (s *store) SyncStats() (syncs, records uint64) {
	if ss, ok := s.Store.(interface{ SyncStats() (uint64, uint64) }); ok {
		return ss.SyncStats()
	}
	return 0, 0
}

// quiesce waits until no compaction commit is running.
func (s *store) quiesce() { s.commits.Wait() }

type sessionLog struct {
	serve.SessionLog
	st *store
	id string
}

func (l *sessionLog) parent() int64 {
	if t := l.st.tracer(); t != nil {
		return t.openSpan(l.id)
	}
	return 0
}

func (l *sessionLog) Append(ev serve.Event) (seq uint64, err error) {
	l.st.timed("Append", l.id, l.parent(), func() { seq, err = l.SessionLog.Append(ev) })
	return seq, err
}

func (l *sessionLog) WaitDurable(seq uint64) (err error) {
	l.st.timed("WaitDurable", l.id, l.parent(), func() { err = l.SessionLog.WaitDurable(seq) })
	return err
}

func (l *sessionLog) BeginCompact() (func(serve.Snapshot) error, error) {
	var commit func(serve.Snapshot) error
	var err error
	l.st.timed("BeginCompact", l.id, l.parent(), func() { commit, err = l.SessionLog.BeginCompact() })
	if err != nil {
		return nil, err
	}
	l.st.commits.Add(1)
	return func(snap serve.Snapshot) (cerr error) {
		defer l.st.commits.Done()
		l.st.timed("CommitCompact", l.id, 0, func() { cerr = commit(snap) })
		return cerr
	}, nil
}

// ------------------------------------------------ core, surrogate and acq

// probe carries one replayed session's tracing context: the Suggest span
// its surrogate calls belong to.
type probe struct {
	t      *tracer
	req    string
	parent int64
}

func (p *probe) fit(inner func([][]float64, []float64) (surrogate.Surrogate, error)) func([][]float64, []float64) (surrogate.Surrogate, error) {
	return func(x [][]float64, y []float64) (surrogate.Surrogate, error) {
		start := p.t.now()
		m, err := inner(x, y)
		p.t.record(span{Parent: p.parent, Layer: "surrogate", Name: "Fit", Req: p.req, Start: start, End: p.t.now()})
		if err != nil {
			return nil, err
		}
		return tracedSurrogate{Surrogate: m, p: p}, nil
	}
}

// tracedSurrogate times hallucination and counts every prediction made
// through the predictors it hands out.
type tracedSurrogate struct {
	surrogate.Surrogate
	p *probe
}

func (s tracedSurrogate) WithPseudo(xp [][]float64) (surrogate.Surrogate, error) {
	start := s.p.t.now()
	m, err := s.Surrogate.WithPseudo(xp)
	s.p.t.record(span{Parent: s.p.parent, Layer: "surrogate", Name: "WithPseudo", Req: s.p.req, Start: start, End: s.p.t.now()})
	if err != nil {
		return nil, err
	}
	return tracedSurrogate{Surrogate: m, p: s.p}, nil
}

func (s tracedSurrogate) StandardizedPredictor() surrogate.Predictor {
	return tracedPredictor{Predictor: s.Surrogate.StandardizedPredictor(), t: s.p.t}
}

type tracedPredictor struct {
	surrogate.Predictor
	t *tracer
}

func (p tracedPredictor) Predict(x []float64) (mu, sigma float64) {
	start := time.Now()
	mu, sigma = p.Predictor.Predict(x)
	p.t.predictNs.Add(int64(time.Since(start)))
	p.t.predicts.Add(1)
	return mu, sigma
}

func (p tracedPredictor) PredictMean(x []float64) float64 {
	start := time.Now()
	mu := p.Predictor.PredictMean(x)
	p.t.predictNs.Add(int64(time.Since(start)))
	p.t.predicts.Add(1)
	return mu
}

// -------------------------------------------------------- testbench layer

// tracedProblem wraps a problem's evaluators so every simulation is a
// testbench span of the given job.
func tracedProblem(p *objective.Problem, t *tracer, job string, parent int64) *objective.Problem {
	q := *p
	wrap := func(eval func([]float64) float64) func([]float64) float64 {
		return func(x []float64) float64 {
			start := t.now()
			y := eval(x)
			t.record(span{Parent: parent, Layer: "testbench", Name: "Eval", Req: job, Start: start, End: t.now()})
			return y
		}
	}
	q.Eval = wrap(p.Eval)
	if p.NewEval != nil {
		q.NewEval = func() func([]float64) float64 { return wrap(p.NewEval()) }
	}
	return &q
}
