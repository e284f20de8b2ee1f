package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"easybo/internal/serve"
)

// counters accumulates a run's operation accounting.
type counters struct {
	attempted atomic.Int64
	failed    atomic.Int64
	shed      atomic.Int64 // 429 answers absorbed by retrying
}

// client is one worker's HTTP connection to the daemon.
type client struct {
	hc   *http.Client
	base string
	c    *counters
}

func newClient(base string, c *counters) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, c: c}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// maxShedRetries bounds how often one request is retried after a 429.
const maxShedRetries = 100

// call performs one JSON request and returns the latency of its final
// attempt, response body included. A 429 is counted as shed and retried.
func (cl *client) call(method, path string, body, out any) (time.Duration, error) {
	cl.c.attempted.Add(1)
	lat, err := cl.do(method, path, body, out)
	if err != nil {
		cl.c.failed.Add(1)
	}
	return lat, err
}

func (cl *client) do(method, path string, body, out any) (time.Duration, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, err := cl.hc.Do(req)
		if err != nil {
			return 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(start)
		if err != nil {
			return lat, err
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && attempt < maxShedRetries:
			cl.c.shed.Add(1)
			time.Sleep(time.Millisecond)
			continue
		case resp.StatusCode/100 != 2:
			return lat, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return lat, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
			}
		}
		return lat, nil
	}
}

// createSession creates a session under an explicit id.
func (cl *client) createSession(id string, cfg serve.SessionConfig) error {
	body := struct {
		ID string `json:"id"`
		serve.SessionConfig
	}{id, cfg}
	_, err := cl.call(http.MethodPost, "/sessions", body, nil)
	return err
}

// snapshot fetches a session's event log.
func (cl *client) snapshot(id string) (serve.Snapshot, error) {
	var snap serve.Snapshot
	_, err := cl.call(http.MethodGet, "/sessions/"+id+"/snapshot", nil, &snap)
	return snap, err
}

// outstanding is one proposal a worker holds.
type outstanding struct {
	id int
	x  []float64
}

// sessionRun is what one closed-loop worker saw of its session.
type sessionRun struct {
	asks   [][]float64     // proposals in ask order
	acked  []int           // proposal ids whose tell was acknowledged
	cycles []time.Duration // tell + next ask, per steady-state cycle
	reqs   []time.Duration // every ask and tell, in the order sent
	best   float64
}

// drive runs n asks and n tells against one session in the paper's
// asynchronous-batch pattern with B=2: ask twice, then repeatedly tell the
// older proposal and ask again, and finally tell the last two. The order is
// fixed, so the session's history is deterministic. Every proposal must lie
// in [lo, hi].
func drive(cl *client, id string, n int, f func([]float64) float64, lo, hi []float64) (*sessionRun, error) {
	if n < 2 {
		return nil, errors.New("drive: need at least two asks")
	}
	run := &sessionRun{best: math.Inf(-1)}
	var held []outstanding
	ask := func() (time.Duration, error) {
		var a serve.Ask
		lat, err := cl.call(http.MethodPost, "/sessions/"+id+"/ask", nil, &a)
		if err != nil {
			return 0, err
		}
		if a.Status != serve.AskOK {
			return 0, fmt.Errorf("session %s: ask answered %q", id, a.Status)
		}
		for j, v := range a.X {
			if !(v >= lo[j] && v <= hi[j]) {
				return 0, fmt.Errorf("session %s: proposal %d coordinate %d = %g outside [%g, %g]", id, a.ProposalID, j, v, lo[j], hi[j])
			}
		}
		held = append(held, outstanding{a.ProposalID, a.X})
		run.asks = append(run.asks, a.X)
		run.reqs = append(run.reqs, lat)
		return lat, nil
	}
	tell := func() (time.Duration, error) {
		o := held[0]
		held = held[1:]
		y := f(o.x)
		pid := o.id
		lat, err := cl.call(http.MethodPost, "/sessions/"+id+"/tell", serve.Tell{ProposalID: &pid, Y: y}, nil)
		if err != nil {
			return 0, err
		}
		run.acked = append(run.acked, o.id)
		run.reqs = append(run.reqs, lat)
		if y > run.best {
			run.best = y
		}
		return lat, nil
	}
	for i := 0; i < 2; i++ {
		if _, err := ask(); err != nil {
			return run, err
		}
	}
	for i := 2; i < n; i++ {
		lt, err := tell()
		if err != nil {
			return run, err
		}
		la, err := ask()
		if err != nil {
			return run, err
		}
		run.cycles = append(run.cycles, lt+la)
	}
	for len(held) > 0 {
		if _, err := tell(); err != nil {
			return run, err
		}
	}
	return run, nil
}

// driveAll drives one session per client concurrently and returns the
// runs in session order and the wall time until the last one finished.
func driveAll(cls []*client, ids []string, n int, f func([]float64) float64, lo, hi []float64) ([]*sessionRun, time.Duration, error) {
	runs := make([]*sessionRun, len(ids))
	errs := make([]error, len(ids))
	done := make(chan int, len(ids))
	start := time.Now()
	for i := range ids {
		i := i
		go func() {
			runs[i], errs[i] = drive(cls[i], ids[i], n, f, lo, hi)
			done <- i
		}()
	}
	for range ids {
		<-done
	}
	wall := time.Since(start)
	return runs, wall, errors.Join(errs...)
}
