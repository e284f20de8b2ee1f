package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// recoverWL times Server.Recover of a two-session WAL on the daemon's
// default backend (auto: the exact GP at this history length). Set-up
// serves the history live, copies the quiet WAL aside, and then lets the
// uninterrupted sessions serve size.recResume more asks each: those asks are
// what every recovered session must serve next.
type recoverWL struct {
	e        *env
	cfgs     []serve.SessionConfig
	ids      []string
	dirs     int
	pristine string
	history  [][]serve.Event // served log of each session at the copy
	next     [][][]float64   // the uninterrupted sessions' next proposals
	best     []float64       // best value over each session's whole history

	rep     serve.RecoveryReport // of the traced pass
	replays [][]time.Duration
}

func newRecover(e *env) workload {
	r := &recoverWL{e: e}
	for i, s := range sessionSeeds(e.seed, sessions) {
		r.cfgs = append(r.cfgs, sessionConfig(s, "auto", initPts))
		r.ids = append(r.ids, fmt.Sprintf("rec-s%d", i))
	}
	return r
}

func (r *recoverWL) dir(kind string) string {
	r.dirs++
	return filepath.Join(r.e.work, fmt.Sprintf("%s-%d", kind, r.dirs))
}

func (r *recoverWL) setup() error {
	live := r.dir("live")
	defer os.RemoveAll(live)
	st, err := wal.Open(live, wal.Options{})
	if err != nil {
		return err
	}
	s := server{e: r.e}
	if err := s.start(newStore(st, nil), false); err != nil {
		return err
	}
	defer s.stop()
	if err := s.create(r.ids, r.cfgs); err != nil {
		return err
	}
	runs, _, err := driveAll(s.cls, r.ids, size.recAsks, hartmann.Eval, r.cfgs[0].Lo, r.cfgs[0].Hi)
	if err != nil {
		return err
	}
	r.history = r.history[:0]
	for j, id := range r.ids {
		snap, err := s.cls[j].snapshot(id)
		if err != nil {
			return err
		}
		r.history = append(r.history, snap.Events)
	}
	s.st.quiesce()
	r.pristine = r.dir("pristine")
	if err := copyTree(live, r.pristine); err != nil {
		return err
	}
	resumed, _, err := driveAll(s.cls, r.ids, size.recResume, hartmann.Eval, r.cfgs[0].Lo, r.cfgs[0].Hi)
	if err != nil {
		return err
	}
	r.next, r.best = nil, nil
	for j := range r.ids {
		r.next = append(r.next, resumed[j].asks)
		b := runs[j].best
		if resumed[j].best > b {
			b = resumed[j].best
		}
		r.best = append(r.best, b)
	}
	return nil
}

func (r *recoverWL) teardown() {
	if r.pristine != "" {
		os.RemoveAll(r.pristine)
		r.pristine = ""
	}
}

// pass recovers a fresh copy of the WAL on a fresh server, then serves
// size.recResume asks per session and requires them to equal the
// uninterrupted sessions' asks.
func (r *recoverWL) pass(i int, traced bool) (passResult, error) {
	dir := r.dir("recover")
	defer os.RemoveAll(dir)
	if err := copyTree(r.pristine, dir); err != nil {
		return passResult{}, err
	}
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return passResult{}, err
	}
	// Only the recovery is traced, not the asks served after it.
	var tr atomic.Pointer[tracer]
	tr.Store(r.e.tr.Load())
	ws := newStore(st, &tr)
	sv := serve.NewServerWith(serve.ServerOptions{Store: ws})
	r.e.c.attempted.Add(1)
	start := time.Now()
	rep, err := sv.Recover()
	took := time.Since(start)
	tr.Store(nil)
	if err == nil && (len(rep.Recovered) != len(r.ids) || len(rep.Quarantined) > 0) {
		err = fmt.Errorf("recovered %v, quarantined %v; want all of %v", rep.Recovered, rep.Quarantined, r.ids)
	}
	if err != nil {
		r.e.c.failed.Add(1)
		sv.Close()
		return passResult{}, err
	}
	if traced {
		r.rep = rep
	}
	heap := liveHeapMB()
	s := server{e: r.e}
	d, err := startDaemon(sv, sv)
	if err != nil {
		sv.Close()
		return passResult{}, err
	}
	s.d, s.st = d, ws
	for range r.ids {
		s.cls = append(s.cls, newClient(d.base, &r.e.c))
	}
	defer s.stop()
	runs, _, err := driveAll(s.cls, r.ids, size.recResume, hartmann.Eval, r.cfgs[0].Lo, r.cfgs[0].Hi)
	if err != nil {
		return passResult{}, err
	}
	for j := range r.ids {
		for k, x := range runs[j].asks {
			if !samePoint(x, r.next[j][k]) {
				return passResult{}, fmt.Errorf("session %s: ask %d after recovery is %v, the uninterrupted session asked %v", r.ids[j], k, x, r.next[j][k])
			}
		}
	}
	ops, _, _ := opsOf(runs)
	return passResult{wall: took, ops: ops, best: mean(r.best), heap: heap, total: took}, nil
}

// check replays the recovered histories in process in a traced run, one
// session after the other as Recover does; that replay is where the core
// and surrogate metrics of this workload come from. The recovery checks
// themselves run in every pass.
func (r *recoverWL) check() error {
	t := r.e.tr.Load()
	if t == nil {
		return nil
	}
	r.replays = r.replays[:0]
	for j := range r.history {
		rp, err := replay(r.cfgs[j], r.history[j], t, r.ids[j])
		if err != nil {
			return err
		}
		r.replays = append(r.replays, rp)
	}
	return nil
}

func (r *recoverWL) extra() map[string]any {
	return map[string]any{"history_per_session": size.recAsks, "resumed_per_session": size.recResume, "sessions": sessions, "surrogate": "auto"}
}

func (r *recoverWL) layers(m map[string]metric, tp passResult) {
	t := r.e.tr.Load()
	walLayers(t, m)
	replayLayers(t, m)
	events := 0
	var core time.Duration
	for j, rp := range r.replays {
		events += len(r.history[j])
		for _, d := range rp {
			core += d
		}
	}
	list, load := t.totalMs("wal", "List"), t.totalMs("wal", "LoadSession")
	total := ms(tp.total)
	setMetric(m, "serve.replay_ms_per_event", (total-load-list)/float64(events))
	setMetric(m, "serve.sessions_recovered", float64(len(r.rep.Recovered)))
	setMetric(m, "serve.sessions_quarantined", float64(len(r.rep.Quarantined)))
	// The serve layer's own replay time is what Recover took beyond the
	// store reads and the replayed core calls.
	setMetric(m, "trace.accounted_share", account(total, list, load, ms(core)))
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !fi.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
