package main

// Fault-injection harness: build the real easybod binary, run it as a
// subprocess against a durable data dir, SIGKILL it mid-session, restart it
// on the same dir, and require the completed session history to be bitwise
// identical to an uninterrupted run. scripts/crashloop.sh is the shell
// twin of this test for manual poking.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildEasybod compiles the daemon once per test binary invocation.
var buildEasybod = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "easybod-bin")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "easybod")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

// httpc bounds every request: a SIGKILLed daemon resets its sockets, but a
// hung one must fail the test rather than wedge it.
var httpc = &http.Client{Timeout: 60 * time.Second}

// sphere is the deterministic objective both runs evaluate.
func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += (v - 0.4) * (v - 0.4)
	}
	return -s
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// daemon is one running easybod subprocess.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer
}

func startDaemon(t *testing.T, bin, dataDir string, port int, fsync string) *daemon {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logs := &bytes.Buffer{}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-fsync", fsync,
		"-fsync-interval", "25ms",
		"-compact-every", "10",
		"-grace", "5s",
	)
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, base: "http://" + addr, logs: logs}
	t.Cleanup(func() { d.kill() })
	d.waitReady()
	return d
}

// kill SIGKILLs the daemon — no grace, no flush, the crash we are testing.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(syscall.SIGKILL)
	}
	_, _ = d.cmd.Process.Wait()
}

func (d *daemon) waitReady() {
	d.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := httpc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.t.Fatalf("daemon never became ready; log:\n%s", d.logs)
}

// call does one JSON round trip; transport errors are returned (the daemon
// may be getting killed underneath us), HTTP status comes back to the caller.
func (d *daemon) call(method, path string, in, out any) (int, error) {
	var body *bytes.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// mustCall is call for phases where the daemon is known to be up.
func (d *daemon) mustCall(method, path string, in, out any, want int) {
	d.t.Helper()
	code, err := d.call(method, path, in, out)
	if err != nil {
		d.t.Fatalf("%s %s: %v; daemon log:\n%s", method, path, err, d.logs)
	}
	if code != want {
		d.t.Fatalf("%s %s: status %d, want %d; daemon log:\n%s", method, path, code, want, d.logs)
	}
}

type askResp struct {
	Status     string    `json:"status"`
	ProposalID int       `json:"proposal_id"`
	X          []float64 `json:"x"`
}

type proposal struct {
	ProposalID int       `json:"proposal_id"`
	X          []float64 `json:"x"`
}

type record struct {
	ID  int       `json:"id"`
	X   []float64 `json:"x"`
	Y   float64   `json:"y"`
	Err string    `json:"err,omitempty"`
}

type statusResp struct {
	Done        bool       `json:"done"`
	Aborted     string     `json:"aborted,omitempty"`
	Outstanding []proposal `json:"outstanding,omitempty"`
	BestY       *float64   `json:"best_y,omitempty"`
	BestX       []float64  `json:"best_x,omitempty"`
	Records     []record   `json:"records,omitempty"`
}

// sessionSpec builds the crash-run session: maxEvals and fitIters set how
// long each incarnation has to live (the async test uses a heavier config
// so the racing SIGKILL actually lands mid-run).
func sessionSpec(id string, maxEvals, fitIters int) map[string]any {
	return map[string]any{
		"id": id, "lo": []float64{0, 0}, "hi": []float64{1, 1},
		"init_points": 4, "max_evals": maxEvals, "seed": 23,
		"fit_iters": fitIters, "refit_every": 4,
	}
}

// reattach re-joins a recovered session: re-create it if the crash erased
// it entirely (with fsync=off even the create record can be lost — the id
// comes back free, never quarantined), then tell every orphaned proposal
// recovery handed back via Outstanding.
func reattach(d *daemon, id string, spec map[string]any) {
	d.t.Helper()
	var st statusResp
	code, err := d.call("GET", "/sessions/"+id, nil, &st)
	if err != nil {
		d.t.Fatalf("status after restart: %v", err)
	}
	if code == http.StatusNotFound {
		d.mustCall("POST", "/sessions", spec, nil, http.StatusCreated)
		return
	}
	if code != http.StatusOK {
		d.t.Fatalf("status after restart: %d; daemon log:\n%s", code, d.logs)
	}
	for _, p := range st.Outstanding {
		d.mustCall("POST", "/sessions/"+id+"/tell",
			map[string]any{"proposal_id": p.ProposalID, "y": sphere(p.X)}, nil, http.StatusOK)
	}
}

// drive runs ask/tell rounds; maxTells < 0 runs to completion. Returns
// whether the session finished.
func drive(d *daemon, id string, maxTells int) bool {
	d.t.Helper()
	tells := 0
	for maxTells < 0 || tells < maxTells {
		var a askResp
		d.mustCall("POST", "/sessions/"+id+"/ask", map[string]any{}, &a, http.StatusOK)
		switch a.Status {
		case "ok":
			d.mustCall("POST", "/sessions/"+id+"/tell",
				map[string]any{"proposal_id": a.ProposalID, "y": sphere(a.X)}, nil, http.StatusOK)
			tells++
		case "done":
			return true
		default:
			d.t.Fatalf("unexpected ask status %q with no outstanding work", a.Status)
		}
	}
	return false
}

func finalStatus(d *daemon, id string) statusResp {
	d.t.Helper()
	var st statusResp
	d.mustCall("GET", "/sessions/"+id, nil, &st, http.StatusOK)
	return st
}

// TestBootRejectsUnknownFsyncPolicy: an unknown -fsync value stops the
// daemon before it binds, with an error naming the valid policies.
func TestBootRejectsUnknownFsyncPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test is not -short friendly")
	}
	bin, err := buildEasybod()
	if err != nil {
		t.Fatal(err)
	}
	// A daemon that accepted the policy would serve forever; the deadline
	// turns that into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-fsync", "sometimes").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("err %v, want exit status 2; output:\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("want always, interval, or off")) {
		t.Fatalf("output does not name the valid policies:\n%s", out)
	}
}

// referenceRun completes the session on one uninterrupted daemon.
func referenceRun(t *testing.T, bin string, spec map[string]any) statusResp {
	t.Helper()
	d := startDaemon(t, bin, t.TempDir(), freePort(t), "off")
	defer d.kill()
	d.mustCall("POST", "/sessions", spec, nil, http.StatusCreated)
	if !drive(d, "ref", -1) {
		t.Fatal("reference run never finished")
	}
	return finalStatus(d, "ref")
}

func requireSameHistory(t *testing.T, got, want statusResp) {
	t.Helper()
	if !got.Done {
		t.Fatalf("crash run never finished: %+v", got)
	}
	if got.Aborted != "" {
		t.Fatalf("crash run aborted: %q", got.Aborted)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("history diverged after crashes:\n got  %+v\n want %+v", got.Records, want.Records)
	}
	if got.BestY == nil || want.BestY == nil ||
		math.Float64bits(*got.BestY) != math.Float64bits(*want.BestY) {
		t.Fatalf("best diverged: got %v want %v", got.BestY, want.BestY)
	}
	if !reflect.DeepEqual(got.BestX, want.BestX) {
		t.Fatalf("best point diverged: got %v want %v", got.BestX, want.BestX)
	}
}

// TestCrashRecoveryKill9 SIGKILLs easybod between requests at fixed points
// for every fsync policy. The ask left in flight at each kill becomes an
// orphaned proposal the next incarnation must hand back via Outstanding.
// With fsync=off acknowledged tells may be lost to the buffered tail — the
// deterministic machine then rewinds to a clean prefix and re-derives the
// identical history, which is exactly what the bitwise comparison checks.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fault injection is not -short friendly")
	}
	bin, err := buildEasybod()
	if err != nil {
		t.Fatal(err)
	}
	spec := sessionSpec("ref", 14, 8)
	want := referenceRun(t, bin, spec)

	for _, fsync := range []string{"always", "interval", "off"} {
		t.Run(fsync, func(t *testing.T) {
			dataDir := t.TempDir()
			port := freePort(t)

			d := startDaemon(t, bin, dataDir, port, fsync)
			d.mustCall("POST", "/sessions", spec, nil, http.StatusCreated)

			// Three incarnations killed mid-session, then one that finishes.
			for _, tells := range []int{3, 4, 3} {
				drive(d, "ref", tells)
				// Leave an ask in flight so recovery must re-adopt it.
				var a askResp
				if code, err := d.call("POST", "/sessions/ref/ask", map[string]any{}, &a); err != nil || code != http.StatusOK {
					t.Fatalf("in-flight ask: code %d err %v", code, err)
				}
				d.kill()

				d = startDaemon(t, bin, dataDir, port, fsync)
				reattach(d, "ref", spec)
			}
			if !drive(d, "ref", -1) {
				t.Fatal("final incarnation never finished")
			}
			requireSameHistory(t, finalStatus(d, "ref"), want)
		})
	}
}

// TestCrashRecoveryAsyncKill9 races SIGKILL against the driver loop with
// fsync=always: the kill can land mid-append or between a durable append
// and its HTTP response, so the driver must tolerate transport errors and
// re-adopt whatever recovery reports outstanding. Durability must hold no
// matter where the kill lands.
func TestCrashRecoveryAsyncKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fault injection is not -short friendly")
	}
	bin, err := buildEasybod()
	if err != nil {
		t.Fatal(err)
	}
	// Heavy enough (GP refits over up to 32 points) that the racing fuses
	// land kills mid-run rather than after completion.
	spec := sessionSpec("ref", 32, 24)
	want := referenceRun(t, bin, spec)

	dataDir := t.TempDir()
	port := freePort(t)
	d := startDaemon(t, bin, dataDir, port, "always")
	d.mustCall("POST", "/sessions", spec, nil, http.StatusCreated)

	for round := 0; ; round++ {
		if round > 40 {
			t.Fatal("session did not converge after 40 incarnations")
		}
		// The killer races the driver; vary the fuse so kills land at
		// different phases (mid-ask, mid-tell, mid-fit) across rounds.
		fuse := time.Duration(20+13*(round%7)) * time.Millisecond
		killed := make(chan struct{})
		go func() {
			time.Sleep(fuse)
			d.kill()
			close(killed)
		}()

		done := false
		for {
			var a askResp
			code, err := d.call("POST", "/sessions/ref/ask", map[string]any{}, &a)
			if err != nil {
				break // daemon died underneath us
			}
			if code != http.StatusOK {
				t.Fatalf("ask: status %d", code)
			}
			if a.Status == "done" {
				done = true
				break
			}
			// A tell whose response is lost may still be durable; the next
			// incarnation's Outstanding view is the source of truth, so a
			// transport error here is simply abandoned, and a 409 (unknown
			// proposal) after recovery means it was already applied.
			code, err = d.call("POST", "/sessions/ref/tell",
				map[string]any{"proposal_id": a.ProposalID, "y": sphere(a.X)}, nil)
			if err != nil {
				break
			}
			if code != http.StatusOK && code != http.StatusConflict {
				t.Fatalf("tell: status %d", code)
			}
		}
		<-killed
		// The killer got this incarnation either way; a fresh one reads the
		// durable state (and, if not done, continues the run).
		d = startDaemon(t, bin, dataDir, port, "always")
		if done {
			break
		}
		reattach(d, "ref", spec)
	}
	reattach(d, "ref", spec)
	if !drive(d, "ref", -1) {
		t.Fatal("final incarnation never finished")
	}
	requireSameHistory(t, finalStatus(d, "ref"), want)
}
