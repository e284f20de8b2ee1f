package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"easybo/internal/serve"
)

// daemon is a serve.Server behind a loopback http.Server.
type daemon struct {
	sv   *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startDaemon serves h (the server, possibly wrapped) on a fresh loopback
// port. The caller has already run the server's recovery.
func startDaemon(sv *serve.Server, h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{sv: sv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the HTTP side down, waits for it, then closes the server
// (draining every session actor and its log).
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	<-d.done
	d.sv.Close()
}

// server is the shared daemon plumbing of the served workloads.
type server struct {
	e   *env
	d   *daemon
	st  *store // nil on the in-memory workload
	cls []*client
}

// start boots a server over the given store (nil: in-memory), wrapping
// the handler for tracing when traceable is set.
func (s *server) start(st *store, traceable bool) error {
	o := serve.ServerOptions{}
	if st != nil {
		o.Store = st
	}
	sv := serve.NewServerWith(o)
	if _, err := sv.Recover(); err != nil {
		sv.Close()
		return err
	}
	var h http.Handler = sv
	if traceable {
		h = tracedHandler(sv, &s.e.tr)
	}
	d, err := startDaemon(sv, h)
	if err != nil {
		sv.Close()
		return err
	}
	s.d, s.st = d, st
	s.cls = make([]*client, sessions)
	for i := range s.cls {
		s.cls[i] = newClient(d.base, &s.e.c)
	}
	return nil
}

// stop shuts the daemon down and waits for compactions to finish.
func (s *server) stop() {
	for _, cl := range s.cls {
		cl.close()
	}
	s.cls = nil
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
	if s.st != nil {
		s.st.quiesce()
	}
}

// warmUp serves n asks on a throw-away session and deletes it.
func (s *server) warmUp(cfg serve.SessionConfig, n int) error {
	cl := s.cls[0]
	if err := cl.createSession("warm-up", cfg); err != nil {
		return err
	}
	if _, err := drive(cl, "warm-up", n, hartmann.Eval, cfg.Lo, cfg.Hi); err != nil {
		return err
	}
	_, err := cl.call(http.MethodDelete, "/sessions/warm-up", nil, nil)
	return err
}

func (s *server) create(ids []string, cfgs []serve.SessionConfig) error {
	for i, id := range ids {
		if err := s.cls[i].createSession(id, cfgs[i]); err != nil {
			return err
		}
	}
	return nil
}
