// Package wal is the durable serve.Store: a per-session write-ahead log on
// local disk, built so a kill -9'd easybod loses nothing it acknowledged.
//
// # Layout
//
// Under the store root:
//
//	sessions/<id>/wal-00000001.log    append-only record segments
//	sessions/<id>/wal-00000002.log    (rotated at SegmentBytes)
//	sessions/<id>/snapshot.json       compaction base (atomic replace)
//	quarantine/<id>/...               sessions set aside by recovery
//	quarantine/<id>/REASON            why
//
// Each segment record is one line: an 8-hex-digit CRC32 (IEEE) of the JSON
// payload, a space, the payload, a newline. The payload carries a strictly
// increasing sequence number, so recovery detects both corruption (CRC) and
// loss or reordering in the middle of history (sequence gaps). A torn final
// line — an unterminated partial write, the signature of a crash
// mid-append — is truncated away; any other bad record, including a
// complete final line that fails its CRC or sequence check, quarantines
// the session instead of resurrecting a wrong state.
//
// The first record of a session is its create record (the SessionConfig);
// every ask, tell, and abort is appended as an event record before the
// serve layer applies it (write-ahead ordering). Snapshot compaction writes
// the session's verified snapshot document as the new recovery base and
// deletes the segments it covers; the segment tail after a snapshot holds
// only the delta. A crash anywhere inside compaction is harmless: until
// the atomic snapshot rename the old segments are authoritative, and after
// it recovery skips the records the snapshot covers and finishes the
// interrupted prune itself.
//
// # Fsync policy
//
//	always    group-committed: every append is flushed to the kernel
//	          immediately and acknowledged only after an fsync covering
//	          its record completes. A store-wide committer coalesces all
//	          records that arrived while the previous fsync pass was in
//	          flight into the next pass, so the per-ack cost amortizes
//	          across concurrent sessions and pipelined appends while the
//	          guarantee stays per-append fsync: survives kill -9 and
//	          power loss at any acknowledged point.
//	interval  flush (to the kernel) every append, fsync on a background
//	          cadence: survives kill -9 at any point — the page cache
//	          belongs to the kernel, not the process — and bounds power-
//	          loss exposure to the interval.
//	off       buffered in user space, flushed on rotation, compaction,
//	          and graceful close; no fsync. A kill -9 can lose the
//	          buffered tail; recovery then restarts from a clean earlier
//	          prefix (never a corrupt state).
//
// A failed flush or fsync under always is sticky: the log refuses every
// later append and durability wait with the same error, so nothing is
// acknowledged past a disk that stopped accepting writes.
//
// The ticket for "an fsync covering its record" is the record's sequence
// number: Append returns it, WaitDurable blocks on it. Within one log an
// fsync covers the whole byte prefix written so far, so a sync that covers
// seq N covers every seq below it too.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"easybo/internal/serve"
)

// Policy selects when appends are fsynced to stable storage.
type Policy string

const (
	PolicyAlways   Policy = "always"
	PolicyInterval Policy = "interval"
	PolicyOff      Policy = "off"
)

// ParsePolicy validates a policy name ("" defaults to interval).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return PolicyInterval, nil
	case PolicyAlways, PolicyInterval, PolicyOff:
		return Policy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Options tunes the store.
type Options struct {
	// Fsync is the append durability policy (default interval).
	Fsync Policy
	// Interval is the background fsync cadence for PolicyInterval
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 1 MiB).
	SegmentBytes int64
	// CompactEvery is the floor on how many events must accumulate since
	// the last snapshot before a compaction is requested (default 256;
	// <0 disables). Snapshots embed the full event history, so the
	// effective threshold grows with the last snapshot's size (see
	// Log.CompactionDue) to keep total compaction I/O linear.
	CompactEvery int
}

func (o *Options) normalize() error {
	p, err := ParsePolicy(string(o.Fsync))
	if err != nil {
		return err
	}
	o.Fsync = p
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 256
	}
	return nil
}

// Store is the on-disk serve.Store. One Store owns one directory tree; the
// daemon opens it once at boot.
type Store struct {
	root string
	opts Options

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool
	done   chan struct{} // stops the interval syncer

	// Group committer (PolicyAlways): appends flush to the kernel and
	// enqueue their log here; one goroutine fsyncs every queued log per
	// pass, so records that arrive while a pass's fsync is in flight share
	// the next one. The queue is a slice plus a per-log queued flag (not a
	// map) so pass order is deterministic and each log appears once.
	cmu    sync.Mutex
	ccond  *sync.Cond
	cqueue []*Log
	cstop  bool
	cdone  chan struct{}

	// Amortization counters: fsync passes issued on the append path vs the
	// records those passes made durable. records/syncs == 1 is per-append
	// fsync; group commit pushes it up with concurrency.
	syncs   atomic.Uint64
	records atomic.Uint64
}

var _ serve.Store = (*Store)(nil)

// Open creates or reopens a WAL store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	for _, sub := range []string{sessionsDirName, quarantineDirName} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("wal: preparing %s: %w", sub, err)
		}
	}
	st := &Store{
		root: dir,
		opts: opts,
		logs: map[string]*Log{},
		done: make(chan struct{}),
	}
	st.ccond = sync.NewCond(&st.cmu)
	st.cdone = make(chan struct{})
	switch opts.Fsync {
	case PolicyInterval:
		go st.syncLoop()
	case PolicyAlways:
		go st.commitLoop()
	default:
		close(st.cdone)
	}
	return st, nil
}

// SyncStats reports how many fsync passes the store has issued for appended
// records and how many records those passes covered; records/syncs is the
// group-commit amortization factor (1.0 ≡ per-append fsync).
func (st *Store) SyncStats() (syncs, records uint64) {
	return st.syncs.Load(), st.records.Load()
}

const (
	sessionsDirName   = "sessions"
	quarantineDirName = "quarantine"
	snapshotFileName  = "snapshot.json"
	lockFileName      = "LOCK"
	segmentPrefix     = "wal-"
	segmentSuffix     = ".log"
)

// errLockHeld reports that a live process holds a session directory's
// exclusive lock. LoadSession translates it into *serve.HeldElsewhereError
// so the cluster routes to the holder instead of forking the session.
var errLockHeld = errors.New("wal: session locked by a live process")

// lockPath is the session directory's advisory lock file.
func lockPath(dir string) string { return filepath.Join(dir, lockFileName) }

func (st *Store) sessionDir(id string) string {
	return filepath.Join(st.root, sessionsDirName, id)
}

func segmentName(n uint64) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, n, segmentSuffix)
}

// record is one WAL line payload.
type record struct {
	Seq  uint64               `json:"seq"`
	Kind string               `json:"kind"` // "create" | "event" | "fence"
	Cfg  *serve.SessionConfig `json:"cfg,omitempty"`
	Ev   *serve.Event         `json:"ev,omitempty"`
	// Fence records only: the ownership epoch being installed and the
	// cluster node the session now belongs to.
	Epoch uint64 `json:"epoch,omitempty"`
	Owner string `json:"owner,omitempty"`
}

// snapshotDoc is the compaction base document: the snapshot plus the
// sequence number the segment tail resumes from.
type snapshotDoc struct {
	NextSeq  uint64         `json:"next_seq"`
	Snapshot serve.Snapshot `json:"snapshot"`
}

// Begin implements serve.Store: it claims the id by creating its directory
// (the filesystem arbitrates duplicates) and writes the create record.
func (st *Store) Begin(id string, cfg serve.SessionConfig) (serve.SessionLog, error) {
	if err := serve.ValidateSessionID(id); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, fmt.Errorf("wal: store closed")
	}
	if _, ok := st.logs[id]; ok {
		return nil, fmt.Errorf("%w: %q", serve.ErrDuplicateSession, id)
	}
	if _, err := os.Stat(filepath.Join(st.root, quarantineDirName, id)); err == nil {
		return nil, fmt.Errorf("%w: %q (quarantined on disk)", serve.ErrDuplicateSession, id)
	}
	dir := st.sessionDir(id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("%w: %q (directory exists)", serve.ErrDuplicateSession, id)
		}
		return nil, fmt.Errorf("wal: creating session dir: %w", err)
	}
	// The dir is freshly ours (Mkdir arbitrated), so the lock cannot be
	// held; taking it now makes this process the single writer for the
	// session's whole life here.
	lf, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	l := newLog(st, id, dir)
	l.lock = lf
	l.seg = 1
	if err := l.openSegment(); err != nil {
		//easybolint:ok errdrop releasing the just-taken lock on a path already returning the open error
		_ = lf.Close()
		return nil, err
	}
	l.mu.Lock()
	l.rec = record{Kind: "create", Cfg: &cfg}
	_, err = l.appendLocked(&l.rec)
	l.mu.Unlock()
	if err == nil && st.opts.Fsync == PolicyAlways {
		// The create record is acked by returning; make it durable now
		// rather than waiting a committer round trip — creates are rare.
		err = l.Sync()
	}
	if err != nil {
		//easybolint:ok errdrop best-effort cleanup on a path already returning the append error
		_ = l.Close()
		return nil, err
	}
	st.logs[id] = l
	return l, nil
}

// Quarantine implements serve.Store: the session's directory moves under
// quarantine/ with a REASON file; it is kept for forensics, not deleted.
func (st *Store) Quarantine(id, reason string) error {
	st.mu.Lock()
	l, ok := st.logs[id]
	delete(st.logs, id)
	st.mu.Unlock()
	if ok {
		// Close takes l.mu: the interval syncer or an in-flight Append may
		// still hold the log.
		//easybolint:ok errdrop a failed flush cannot block quarantine; the dir rename below is the decision that counts
		_ = l.Close()
	}
	src := st.sessionDir(id)
	dst := filepath.Join(st.root, quarantineDirName, id)
	// A session may be re-quarantined across restarts if the operator
	// copied it back; keep the newest forensics.
	//easybolint:ok errdrop best-effort: a leftover stale dst makes the rename fail, which is reported
	_ = os.RemoveAll(dst)
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("wal: quarantining %q: %w", id, err)
	}
	//easybolint:ok errdrop REASON is forensics, not state; quarantine holds without it
	_ = os.WriteFile(filepath.Join(dst, "REASON"), []byte(reason+"\n"), 0o644)
	return syncDir(filepath.Join(st.root, quarantineDirName))
}

// Remove implements serve.Store.
func (st *Store) Remove(id string) error {
	st.mu.Lock()
	l, ok := st.logs[id]
	delete(st.logs, id)
	st.mu.Unlock()
	if ok {
		//easybolint:ok errdrop the session is being deleted; a failed final flush has nothing left to protect
		_ = l.Close()
	}
	if err := os.RemoveAll(st.sessionDir(id)); err != nil {
		return fmt.Errorf("wal: removing %q: %w", id, err)
	}
	return syncDir(filepath.Join(st.root, sessionsDirName))
}

// Close implements serve.Store: flush and close every open log.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	close(st.done)
	logs := make([]*Log, 0, len(st.logs))
	for _, l := range st.logs {
		logs = append(logs, l)
	}
	st.logs = map[string]*Log{}
	st.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	// Stop the committer after the logs: closeLocked already flushed and
	// fsynced each one, so any still-queued pass is a no-op.
	if st.opts.Fsync == PolicyAlways {
		st.cmu.Lock()
		st.cstop = true
		st.cmu.Unlock()
		st.ccond.Signal()
		<-st.cdone
	}
	return first
}

// syncLoop is the background fsync cadence for PolicyInterval.
func (st *Store) syncLoop() {
	//easybolint:ok walltime fsync pacing only: when data hits the platter never reaches replayed bytes
	t := time.NewTicker(st.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-st.done:
			return
		case <-t.C:
			st.mu.Lock()
			logs := make([]*Log, 0, len(st.logs))
			for _, l := range st.logs {
				logs = append(logs, l)
			}
			st.mu.Unlock()
			for _, l := range logs {
				l.syncIfDirty()
			}
		}
	}
}

// commitLoop is the PolicyAlways group committer: it drains the queue of
// logs with unsynced appends and fsyncs each exactly once per pass. Every
// record that lands while a pass's fsyncs are in flight re-queues its log,
// so the next pass covers all of them with one fsync per log — the
// amortization that makes -fsync always scale with concurrency.
func (st *Store) commitLoop() {
	defer close(st.cdone)
	for {
		st.cmu.Lock()
		for len(st.cqueue) == 0 && !st.cstop {
			st.ccond.Wait()
		}
		if len(st.cqueue) == 0 {
			st.cmu.Unlock()
			return
		}
		batch := st.cqueue
		st.cqueue = nil
		st.cmu.Unlock()
		st.commitPass(batch)
	}
}

// commitPass fsyncs each queued log; the per-log fsyncs run concurrently
// (independent files — the kernel can overlap them), the pass completes
// when all have.
func (st *Store) commitPass(batch []*Log) {
	if len(batch) == 1 {
		batch[0].commitOne()
		return
	}
	var wg sync.WaitGroup
	for _, l := range batch {
		wg.Add(1)
		go func(l *Log) {
			defer wg.Done()
			l.commitOne()
		}(l)
	}
	wg.Wait()
}

// enqueueCommit schedules l for the committer's next pass. Caller holds
// l.mu (guarding the queued flag); the flag keeps a log from appearing in
// the queue twice and is cleared by commitOne before it captures the covered
// sequence, so a record that lands after that point re-queues the log.
func (st *Store) enqueueCommit(l *Log) {
	if l.queued {
		return
	}
	l.queued = true
	st.cmu.Lock()
	st.cqueue = append(st.cqueue, l)
	st.cmu.Unlock()
	st.ccond.Signal()
}

// ------------------------------------------------------------------- Log

// Log is one session's segmented append-only log. Appends come from the
// session actor; the interval syncer, the group committer, durability
// waiters, a compaction commit, and Close may run concurrently, so a mutex
// guards the file state.
type Log struct {
	st  *Store
	id  string
	dir string

	mu       sync.Mutex
	f        *os.File
	lock     *os.File // exclusive dir lock: the cross-process single-writer guard
	w        *bufio.Writer
	seg      uint64 // current segment index
	segBytes int64  // bytes written to the current segment
	seq      uint64 // next record sequence number
	since    int    // events appended since the last compaction
	base     int    // events embedded in the last snapshot (0 = none)
	dirty    bool   // unsynced data since the last fsync
	closed   bool

	cond      *sync.Cond // wakes WaitDurable on syncedSeq/syncErr/close changes
	syncedSeq uint64     // records with seq below this are fsynced
	syncErr   error      // sticky commit failure: nothing may be acked after it
	queued    bool       // scheduled for the committer's next pass

	// Append scratch, reused across calls so a steady-state append
	// allocates nothing. Only touched under l.mu; the actor serializes
	// appends, so the scratch is never live across two records.
	encBuf bytes.Buffer
	enc    *json.Encoder
	rec    record
	recEv  serve.Event
}

var _ serve.SessionLog = (*Log)(nil)

// newLog wires a Log's encoder and durability plumbing; callers set the
// position fields (seg/seq/since/base) and then openSegment.
func newLog(st *Store, id, dir string) *Log {
	l := &Log{st: st, id: id, dir: dir}
	l.cond = sync.NewCond(&l.mu)
	l.enc = json.NewEncoder(&l.encBuf)
	return l
}

// openSegment opens (creating or appending) the current segment.
func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, segmentName(l.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		//easybolint:ok errdrop nothing was written; the stat error is the one reported
		f.Close()
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	l.f = f
	l.segBytes = fi.Size()
	l.w = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// crcPlaceholder is the frame header appendLocked stamps before encoding;
// crcPut backfills the real checksum over it once the payload bytes exist.
const crcPlaceholder = "00000000 "

// crcPut writes crc as 8 lowercase hex digits into dst[:8], matching the
// byte format fmt.Sprintf("%08x", crc) produced before the zero-alloc path.
func crcPut(dst []byte, crc uint32) {
	const hexdigits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		dst[i] = hexdigits[crc&0xf]
		crc >>= 4
	}
}

// appendLocked frames and writes one record, stamping it with the next
// sequence number, and returns that number as the durability ticket. The
// frame is built in the log's scratch buffer as "00000000 <json>\n" and the
// CRC backfilled over the placeholder, so a steady-state append allocates
// nothing. Under PolicyAlways the bytes go to the kernel immediately and
// the log joins the committer's next fsync pass; WaitDurable gates the ack.
// Caller holds l.mu.
func (l *Log) appendLocked(rec *record) (uint64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: log %q closed", l.id)
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	rec.Seq = l.seq
	l.encBuf.Reset()
	//easybolint:ok errdrop bytes.Buffer.WriteString is documented to always return a nil error
	l.encBuf.WriteString(crcPlaceholder)
	if err := l.enc.Encode(rec); err != nil {
		return 0, fmt.Errorf("wal: encoding record: %w", err)
	}
	line := l.encBuf.Bytes() // Encode appended the newline terminator
	crcPut(line[:8], crc32.ChecksumIEEE(line[len(crcPlaceholder):len(line)-1]))
	if _, err := l.w.Write(line); err != nil {
		return 0, fmt.Errorf("wal: appending: %w", err)
	}
	seq := rec.Seq
	l.segBytes += int64(len(line))
	l.seq++
	l.dirty = true
	switch l.st.opts.Fsync {
	case PolicyAlways:
		if err := l.w.Flush(); err != nil {
			return 0, fmt.Errorf("wal: flushing: %w", err)
		}
		l.st.enqueueCommit(l)
	case PolicyInterval:
		// Hand the bytes to the kernel now (survives kill -9); the
		// background cadence bounds power-loss exposure.
		if err := l.w.Flush(); err != nil {
			return 0, fmt.Errorf("wal: flushing: %w", err)
		}
	case PolicyOff:
		// Buffered; the bufio layer flushes when full.
	}
	if l.segBytes >= l.st.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Append implements serve.SessionLog: it stages the event record, hands it
// to the kernel per policy, and returns its sequence number — the ticket
// WaitDurable acks against.
func (l *Log) Append(ev serve.Event) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recEv = ev
	l.rec = record{Kind: "event", Ev: &l.recEv}
	seq, err := l.appendLocked(&l.rec)
	if err != nil {
		return 0, err
	}
	l.since++
	return seq, nil
}

// WaitDurable implements serve.SessionLog: it blocks until an fsync
// covering seq completes. Under interval/off the configured contract is
// that acks do not wait for the platter, so it returns immediately; under
// always it is the second half of the append→ack pipeline.
func (l *Log) WaitDurable(seq uint64) error {
	if l.st.opts.Fsync != PolicyAlways {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncedSeq <= seq && l.syncErr == nil && !l.closed {
		l.cond.Wait()
	}
	if l.syncedSeq > seq {
		return nil
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return fmt.Errorf("wal: log %q closed before seq %d was durable", l.id, seq)
}

// commitOne is one log's slice of a committer pass: flush the buffered tail
// under the lock, fsync the captured file handle outside it (appends
// proceed concurrently), then publish the covered sequence and wake
// waiters. An fsync error is ignored when a rotation, Sync, or Close
// already made the covered bytes durable through a different path — the
// handle we captured may have been closed under us, which is fine exactly
// when syncedSeq already passed our capture.
func (l *Log) commitOne() {
	l.mu.Lock()
	l.queued = false
	if l.closed || l.syncedSeq >= l.seq {
		// closeLocked flushed and fsynced, or a synchronous path (rotate,
		// Sync, Fence) already covered everything queued.
		l.mu.Unlock()
		return
	}
	if err := l.w.Flush(); err != nil {
		l.failCommitLocked(fmt.Errorf("wal: flushing: %w", err))
		l.mu.Unlock()
		return
	}
	upto := l.seq
	f := l.f
	l.mu.Unlock()

	err := f.Sync()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.syncedSeq >= upto {
		// Covered by a concurrent rotate/Sync/Close; err (if any) is stale.
		return
	}
	if err != nil {
		l.failCommitLocked(fmt.Errorf("wal: fsync: %w", err))
		return
	}
	l.st.records.Add(upto - l.syncedSeq)
	l.st.syncs.Add(1)
	l.syncedSeq = upto
	l.dirty = l.seq != upto // records that landed during the fsync
	l.cond.Broadcast()
}

// failCommitLocked records a sticky sync failure and wakes waiters: from
// here every WaitDurable and Append fails, so nothing is acked past a disk
// that stopped accepting writes. Caller holds l.mu.
func (l *Log) failCommitLocked(err error) {
	if l.syncErr == nil {
		l.syncErr = err
	}
	l.cond.Broadcast()
}

// Fence implements serve.SessionLog: it durably records an ownership
// transfer. The record participates in the ordinary sequence numbering (so
// its position in history is integrity-checked like any event), and it is
// pushed to stable storage immediately under every policy but off — the
// whole point of a fence is that it is on disk before the new owner serves
// a request, regardless of the append cadence.
func (l *Log) Fence(epoch uint64, owner string) error {
	l.mu.Lock()
	l.rec = record{Kind: "fence", Epoch: epoch, Owner: owner}
	_, err := l.appendLocked(&l.rec)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if l.st.opts.Fsync == PolicyOff {
		// Honor the configured no-fsync contract, but at least hand the
		// record to the kernel so only power loss — not a process kill —
		// can lose it.
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed {
			return nil
		}
		return l.flushLocked(false)
	}
	return l.Sync()
}

// CompactionDue implements serve.SessionLog. A snapshot embeds the
// session's full event history (full replay is the recovery verification
// mechanism), so each compaction rewrites everything so far; at a fixed
// cadence that costs O(n²) I/O over a session's life. The threshold
// therefore grows with the last snapshot: compaction waits until the tail
// matches the snapshot's size (floored at CompactEvery), so the history
// roughly doubles between snapshots and total compaction I/O stays O(n).
func (l *Log) CompactionDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	due := l.st.opts.CompactEvery
	if due <= 0 {
		return false
	}
	if l.base > due {
		due = l.base
	}
	return l.since >= due
}

// BeginCompact implements serve.SessionLog: it seals the log at the
// compaction cut and returns a commit function that does the expensive
// snapshot encode+write off the caller's goroutine. The seal is cheap — a
// segment rotation, which per policy flushes (and fsyncs) everything up to
// the cut before commit may prune it — so the session actor pays O(1) I/O
// and keeps serving asks while commit encodes; appends land in the fresh
// segment the whole time.
func (l *Log) BeginCompact() (func(serve.Snapshot) error, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("wal: log %q closed", l.id)
	}
	if err := l.rotateLocked(); err != nil {
		return nil, err
	}
	cutSeq := l.seq
	cutSeg := l.seg - 1 // rotateLocked advanced to the fresh segment
	cutSince := l.since
	return func(snap serve.Snapshot) error {
		return l.commitSnapshot(cutSeq, cutSeg, cutSince, snap)
	}, nil
}

// commitSnapshot is the off-actor half of a compaction: encode and write
// the snapshot document with no lock held, then atomically install it as
// the new recovery base and prune the sealed segments it covers. A log
// closed while the encode ran (shutdown, handoff, quarantine) aborts
// quietly — until the rename the sealed segments stay authoritative, so
// nothing is lost. The snapshot covers exactly the records below cutSeq;
// the segment tail past the cut holds the delta, as always.
func (l *Log) commitSnapshot(cutSeq, cutSeg uint64, cutSince int, snap serve.Snapshot) error {
	doc, err := json.Marshal(snapshotDoc{NextSeq: cutSeq, Snapshot: snap})
	if err != nil {
		return fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	fsync := l.st.opts.Fsync != PolicyOff
	tmp := filepath.Join(l.dir, snapshotFileName+".tmp")
	if err := writeFileSync(tmp, doc, fsync); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		//easybolint:ok errdrop quiet abort: the tmp file is garbage and the sealed segments remain authoritative
		_ = os.Remove(tmp)
		return nil
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotFileName)); err != nil {
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	if fsync {
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	l.since -= cutSince
	l.base = len(snap.Events)
	// The snapshot is durable; the sealed segments it covers are garbage.
	// A failed prune does not poison the log: recovery skips records the
	// snapshot covers and finishes the prune itself, and the next
	// compaction retries it.
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.n > cutSeg {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, seg.path)); err != nil {
			return fmt.Errorf("wal: pruning segment: %w", err)
		}
	}
	return nil
}

// Compact implements serve.SessionLog: BeginCompact plus an immediate
// commit, for callers that want the synchronous shape (snapshot install,
// handoff, tests). The snapshot must cover every event appended so far.
func (l *Log) Compact(snap serve.Snapshot) error {
	commit, err := l.BeginCompact()
	if err != nil {
		return err
	}
	return commit(snap)
}

// Sync implements serve.SessionLog.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.flushLocked(true)
}

// Close implements serve.SessionLog: flush, fsync, close. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeLocked()
}

func (l *Log) closeLocked() error {
	if l.closed {
		return nil
	}
	err := l.flushLocked(true)
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if l.lock != nil {
		// Releasing the dir lock (by closing its handle) comes after the
		// final flush: the instant another process can acquire the log,
		// everything this writer produced is already on disk.
		//easybolint:ok errdrop closing the advisory lock handle releases it either way; the flush above was the durability step
		_ = l.lock.Close()
		l.lock = nil
	}
	if err != nil && l.syncErr == nil {
		// The final flush failed: durability waiters must not ack.
		l.syncErr = err
	}
	l.closed = true
	l.cond.Broadcast()
	return err
}

// flushLocked drains the bufio buffer to the kernel and optionally fsyncs,
// publishing the newly covered sequence numbers to durability waiters.
func (l *Log) flushLocked(fsync bool) error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flushing: %w", err)
	}
	if fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.dirty = false
		if l.seq > l.syncedSeq {
			l.st.records.Add(l.seq - l.syncedSeq)
			l.st.syncs.Add(1)
			l.syncedSeq = l.seq
			l.cond.Broadcast()
		}
	}
	return nil
}

// syncIfDirty is the interval syncer's per-log step.
func (l *Log) syncIfDirty() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.dirty {
		return
	}
	_ = l.flushLocked(true)
}

// rotateLocked seals the active segment and opens the next one. As in
// Compact, a failure after the segment file is closed marks the log closed
// so the dead writer is never appended to.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(l.st.opts.Fsync != PolicyOff); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.closed = true
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	l.seg++
	if err := l.openSegment(); err != nil {
		l.closed = true
		return err
	}
	return nil
}

// ---------------------------------------------------------------- helpers

// writeFileSync writes data to path and optionally fsyncs it.
func writeFileSync(path string, data []byte, fsync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: writing %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		//easybolint:ok errdrop the write error already fails the snapshot; the tmp file is garbage either way
		f.Close()
		return fmt.Errorf("wal: writing %s: %w", filepath.Base(path), err)
	}
	if fsync {
		if err := f.Sync(); err != nil {
			//easybolint:ok errdrop the fsync error already fails the snapshot; the tmp file is garbage either way
			f.Close()
			return fmt.Errorf("wal: fsync %s: %w", filepath.Base(path), err)
		}
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	//easybolint:ok errdrop read-only directory handle; Sync below is the durability point
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: dir fsync: %w", err)
	}
	return nil
}

type segmentRef struct {
	path string
	n    uint64
}

// listSegments returns the session's segments sorted by index.
func listSegments(dir string) ([]segmentRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing segments: %w", err)
	}
	var segs []segmentRef
	for _, e := range entries {
		name := e.Name()
		var n uint64
		if _, err := fmt.Sscanf(name, segmentPrefix+"%08d"+segmentSuffix, &n); err == nil &&
			name == segmentName(n) {
			segs = append(segs, segmentRef{path: name, n: n})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	return segs, nil
}
