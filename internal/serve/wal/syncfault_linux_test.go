package wal

import (
	"bufio"
	"errors"
	"io"
	"os"
	"syscall"
	"testing"
)

// TestWALSyncFailureIsSticky injects a failing fsync under fsync=always:
// the log's segment handle is swapped for the write end of a pipe, so the
// committer's flush succeeds but its fsync fails with EINVAL. The record
// that pass covered must not be acknowledged, every later append must fail
// with the same error, and the failed pass must not count as a durable
// sync.
func TestWALSyncFailureIsSticky(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{Fsync: PolicyAlways, CompactEvery: -1})
	l, err := st.Begin("sick", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := l.(*Log)
	seq, err := log.Append(askEvent(0, 0.25, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.WaitDurable(seq); err != nil {
		t.Fatalf("healthy record: WaitDurable = %v", err)
	}
	syncs, records := st.SyncStats()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go io.Copy(io.Discard, r) // ends when the log closes the write end
	log.mu.Lock()
	seg := log.f
	log.f = w
	log.w = bufio.NewWriterSize(w, 1<<16)
	log.mu.Unlock()
	defer seg.Close()

	seq, err = log.Append(askEvent(1, 0.75, 0.125))
	if err != nil {
		t.Fatalf("append before the failing fsync: %v", err)
	}
	werr := log.WaitDurable(seq)
	if !errors.Is(werr, syscall.EINVAL) {
		t.Fatalf("WaitDurable after a failed fsync = %v, want EINVAL", werr)
	}
	for i := 2; i < 5; i++ {
		if _, err := log.Append(askEvent(i, 0.5, 0.5)); !errors.Is(err, werr) {
			t.Fatalf("append %d after the failed fsync = %v, want the sticky %v", i, err, werr)
		}
	}
	if s, rc := st.SyncStats(); s != syncs || rc != records {
		t.Fatalf("SyncStats = (%d syncs, %d records), want the failed pass uncounted (%d, %d)",
			s, rc, syncs, records)
	}
	st.Close() // its final fsync of the pipe fails too
}
