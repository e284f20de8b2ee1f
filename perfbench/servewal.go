package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// serveWAL serves sessions whose Latin-hypercube design is longer than the
// pass, so no model ever runs: every request is HTTP, the session actor and
// a WAL append, with snapshot compactions on the store's cadence. Each pass
// boots its own daemon on a fresh directory, so no pass inherits another's
// sessions or heap.
//
// The store runs with fsync off. Under fsync=always the cycle time of
// identical runs on a shared virtual disk differed by 2x with the host's
// I/O pressure, which no regression bound can absorb; the append, framing
// and compaction work is the same under both policies.
type serveWAL struct {
	server
	dir    string
	dirs   int // directories made so far
	cfgs   []serve.SessionConfig
	tids   []string      // the traced pass's session ids
	traced []*sessionRun // the traced pass's client view
	bytes  int64         // WAL size at the end of the traced pass
}

var walOptions = wal.Options{Fsync: wal.PolicyOff}

func newServeWAL(e *env) workload {
	w := &serveWAL{server: server{e: e}}
	for _, s := range sessionSeeds(e.seed, sessions) {
		w.cfgs = append(w.cfgs, sessionConfig(s, "features", size.walAsks))
	}
	return w
}

// boot opens a store on a fresh directory and serves it.
func (w *serveWAL) boot() error {
	w.dirs++
	w.dir = filepath.Join(w.e.work, fmt.Sprintf("wal-%d", w.dirs))
	st, err := wal.Open(w.dir, walOptions)
	if err != nil {
		return err
	}
	return w.start(newStore(st, &w.e.tr), true)
}

// setup boots a WAL-backed daemon and serves one warm-up session on it.
func (w *serveWAL) setup() error {
	if err := w.boot(); err != nil {
		return err
	}
	return w.warmUp(sessionConfig(warmSeed, "features", size.walWarm), size.walWarm)
}

func (w *serveWAL) teardown() {
	w.stop()
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *serveWAL) pass(i int, traced bool) (passResult, error) {
	w.teardown()
	if err := w.boot(); err != nil {
		return passResult{}, err
	}
	defer w.teardown()
	ids := make([]string, sessions)
	for j := range ids {
		ids[j] = fmt.Sprintf("wal-p%d-s%d", i, j)
	}
	if err := w.create(ids, w.cfgs); err != nil {
		return passResult{}, err
	}
	runs, wall, err := driveAll(w.cls, ids, size.walAsks, hartmann.Eval, w.cfgs[0].Lo, w.cfgs[0].Hi)
	if err != nil {
		return passResult{}, err
	}
	heap := liveHeapMB()
	if traced {
		w.traced, w.tids = runs, ids
	}
	w.stop()
	if traced {
		w.bytes = dirBytes(w.dir)
	}
	if err := w.verify(ids, runs); err != nil {
		return passResult{}, err
	}
	ops, total, best := opsOf(runs)
	return passResult{wall: wall, ops: ops, best: best, heap: heap, total: total}, nil
}

// verify reopens the stopped daemon's store on a fresh server and confirms
// that no session is quarantined and every acknowledged tell is in the
// recovered log.
func (w *serveWAL) verify(ids []string, runs []*sessionRun) error {
	st, err := wal.Open(w.dir, walOptions)
	if err != nil {
		return err
	}
	sv := serve.NewServerWith(serve.ServerOptions{Store: st})
	defer sv.Close()
	rep, err := sv.Recover()
	if err != nil {
		return err
	}
	if len(rep.Quarantined) > 0 {
		return fmt.Errorf("quarantined at reopen: %v", rep.Quarantined)
	}
	for j, id := range ids {
		rr := httptest.NewRecorder()
		sv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/sessions/"+id, nil))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("session %s after reopen: HTTP %d", id, rr.Code)
		}
		var status serve.Status
		if err := json.Unmarshal(rr.Body.Bytes(), &status); err != nil {
			return err
		}
		logged := map[int]bool{}
		for _, r := range status.Records {
			logged[r.ID] = true
		}
		for _, pid := range runs[j].acked {
			if !logged[pid] {
				return fmt.Errorf("session %s: acknowledged tell of proposal %d is not in the log", id, pid)
			}
		}
	}
	return nil
}

// check has nothing left to do: every pass verified its own store.
func (w *serveWAL) check() error { return nil }

func (w *serveWAL) extra() map[string]any {
	return map[string]any{"asks_per_session": size.walAsks, "sessions": sessions, "fsync": string(walOptions.Fsync)}
}

func (w *serveWAL) layers(m map[string]metric, tp passResult) {
	t := w.e.tr.Load()
	served := servedLayers(t, m, w.tids, w.traced, nil)
	setMetric(m, "wal.bytes", float64(w.bytes))
	setMetric(m, "trace.accounted_share", served/ms(tp.total))
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
