package serve

import (
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// syncFailStore is a MemStore whose log for one session fails its first
// durability wait, standing in for a disk whose fsync failed once.
type syncFailStore struct {
	*MemStore
	sick string
}

// syncFailLog fails only the first WaitDurable, so a later request on the
// session can fail only because the server poisoned it.
type syncFailLog struct {
	SessionLog
	failed atomic.Bool
}

var errInjectedSync = errors.New("injected fsync failure")

func (l *syncFailLog) WaitDurable(seq uint64) error {
	if l.failed.CompareAndSwap(false, true) {
		return errInjectedSync
	}
	return l.SessionLog.WaitDurable(seq)
}

func (st syncFailStore) Begin(id string, cfg SessionConfig) (SessionLog, error) {
	l, err := st.MemStore.Begin(id, cfg)
	if err != nil || id != st.sick {
		return l, err
	}
	return &syncFailLog{SessionLog: l}, nil
}

// TestFailedCommitPoisonsSession: a request whose durability wait fails is
// answered with an error, never an ack, and the session refuses all later
// work with the same poison; other sessions keep serving.
func TestFailedCommitPoisonsSession(t *testing.T) {
	c, _, stop := newTestServerWith(t, ServerOptions{Store: syncFailStore{NewMemStore(), "sick"}})
	defer stop()
	for _, id := range []string{"sick", "well"} {
		cfg := specFor(0, "skip").cfg
		cfg.ID = id
		if code := c.post("/sessions", cfg, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, code)
		}
	}

	for i, verb := range []string{"ask", "ask", "tell"} {
		body := map[string]any{}
		if verb == "tell" {
			body = map[string]any{"proposal_id": 0, "y": 1.0}
		}
		var er errorResponse
		code := c.post("/sessions/sick/"+verb, body, &er)
		if code/100 == 2 || !strings.Contains(er.Error, "session poisoned: "+errInjectedSync.Error()) {
			t.Fatalf("request %d (%s) on the sick session: status %d %q, want a non-2xx poison error",
				i, verb, code, er.Error)
		}
	}

	var a Ask
	if code := c.post("/sessions/well/ask", map[string]any{}, &a); code != http.StatusOK || a.Status != AskOK {
		t.Fatalf("ask on the healthy session: status %d %+v", code, a)
	}
	tell := Tell{ProposalID: &a.ProposalID, Y: 1}
	if code := c.post("/sessions/well/tell", tell, nil); code != http.StatusOK {
		t.Fatalf("tell on the healthy session: status %d", code)
	}
}
