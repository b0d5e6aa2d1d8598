// Package wal is a segment-based append-only write-ahead log with
// group-commit batching, snapshot files, and crash recovery. It is the
// durability engine under provstore: every mutation is framed, checksummed,
// and written to the active segment before it is acknowledged, snapshots
// periodically capture the whole store state, and compaction deletes
// segments wholly covered by the latest snapshot so disk use stays
// bounded.
//
// Record framing (little-endian):
//
//	length(4) | crc32c(4) | seq(8) | payload
//
// where crc32c covers seq+payload. Segments are named %016x.wal after the
// sequence number of the first record they may contain; snapshots are
// %016x.snap after the last sequence number their payload includes.
//
// Durability semantics: Append (= Stage + Ticket.Commit) returns only
// after the record is written to the active segment and — when
// Options.Fsync is set — fsynced. Concurrent committers coalesce: the
// first one into the critical section writes and syncs every staged
// record in one batch (group commit), the rest just wait on the shared
// batch ticket.
package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures a Log.
type Options struct {
	// Fsync makes every commit batch fsync the active segment before
	// acknowledging. Off, durability is bounded by the OS page cache
	// (process crashes lose nothing; power loss may).
	Fsync bool
	// SegmentBytes is the rotation threshold for the active segment.
	// Defaults to 4 MiB.
	SegmentBytes int64
	// FS supplies the segment files. Nil selects DefaultFS (the real
	// filesystem); tests inject a FaultFS to exercise the fail-stop
	// latch against write/fsync failures and slow disks.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FS == nil {
		o.FS = DefaultFS
	}
	return o
}

// Record is one recovered log entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// RecoveredState is what Open reconstructed from disk: the latest valid
// snapshot (if any) plus every durable record after it, in sequence
// order.
type RecoveredState struct {
	// SnapshotSeq is the sequence number the snapshot payload covers
	// (0 = no snapshot found).
	SnapshotSeq uint64
	// SnapshotPayload is the raw snapshot body, nil when SnapshotSeq is 0.
	SnapshotPayload []byte
	// Records are the tail records with Seq > SnapshotSeq.
	Records []Record
	// Repaired reports that a torn tail (partial final record from a
	// crash mid-write) was truncated away during recovery.
	Repaired bool
	// SuspectBitRot reports that CRC-valid record frames existed AFTER
	// the truncation point. A torn write can look like this too (pages
	// of one unacknowledged batch persisting out of order before fsync
	// returned), so recovery still repairs and proceeds — but if the
	// damage was in-place bit rot, the truncated frames were real
	// acknowledged records. Callers should log this loudly.
	SuspectBitRot bool
}

// LastSeq returns the highest sequence number recovered.
func (r *RecoveredState) LastSeq() uint64 {
	if n := len(r.Records); n > 0 {
		return r.Records[n-1].Seq
	}
	return r.SnapshotSeq
}

// batch is one group-commit unit: every record staged while it is
// current is made durable by a single leader write (+ fsync).
type batch struct {
	done chan struct{}
	err  error
}

// Stats is a point-in-time summary of the log, surfaced through
// provstore and the /stats endpoint.
type Stats struct {
	LastSeq         uint64 `json:"last_seq"`
	SnapshotSeq     uint64 `json:"snapshot_seq"`
	Segments        int    `json:"segments"`
	DiskBytes       int64  `json:"disk_bytes"`
	Appends         uint64 `json:"appends"`
	Commits         uint64 `json:"commits"`
	Syncs           uint64 `json:"syncs"`
	Snapshots       uint64 `json:"snapshots"`
	SegmentsRemoved uint64 `json:"segments_removed"`
	// QueueDepth and CommitLatencyUs snapshot the commit-queue gauge
	// (see Log.QueueDepth / Log.CommitLatency) for /stats.
	QueueDepth      int64 `json:"commit_queue_depth"`
	CommitLatencyUs int64 `json:"commit_latency_us"`
}

// segmentInfo is one on-disk segment. By the rotation invariant the
// first record of segment i+1 has sequence exactly firstSeq(i+1), so
// segment i holds records [firstSeq(i), firstSeq(i+1)-1].
type segmentInfo struct {
	firstSeq uint64
	path     string
	size     int64
}

// Log is the append side of the write-ahead log.
type Log struct {
	dir  string
	opts Options
	lock *os.File // flock on dir/LOCK, held for the log's lifetime

	// mu guards the staging state: callers serialize sequence
	// assignment and buffer encoding here, never any IO.
	mu      sync.Mutex
	pending []byte // encoded records awaiting the next commit batch
	spare   []byte // recycled pending buffer
	cur     *batch // ticket covering everything in pending
	nextSeq uint64
	closed  bool
	// failed latches the first IO error. A failed write can leave a
	// gap on disk that recovery would (rightly) truncate at, so once
	// any write or fsync fails the log refuses all further staging,
	// syncing, and snapshotting: nothing is acknowledged after the
	// point of failure, which keeps "recovery truncates at the first
	// invalid record" equivalent to "no acknowledged record is lost".
	failed error

	// ioMu serializes all file IO: commit batches, rotation,
	// snapshot writes, and compaction.
	ioMu        sync.Mutex
	f           File
	fSize       int64
	segs        []segmentInfo // sorted by firstSeq; last entry is active
	snapSeq     uint64        // latest durable snapshot
	lastWritten uint64        // highest seq written to a segment

	// Live-tail subscription: committed is the highest sequence whose
	// commit batch has fully reached the segment file (and been fsynced
	// when Options.Fsync is set) — the publication point replication
	// readers may stream up to. tailCh is created lazily by the first
	// waiter and closed+cleared on every advance, so any number of
	// waiters wake per commit while an unwatched log (no replication
	// tails — the common single-node case) commits without allocating a
	// wake channel per batch.
	committed atomic.Uint64
	tailMu    sync.Mutex
	tailCh    chan struct{} // nil = no waiters since the last advance
	tailDone  bool

	// compactFloor is the replication cursor honored by Compact: records
	// above it are retained even when a snapshot covers them, so a
	// connected-but-lagging follower's unstreamed history is not deleted
	// out from under it. MaxUint64 (the initial value) = no restriction.
	compactFloor atomic.Uint64

	// Commit-queue telemetry, read lock-free by admission control on
	// every shed decision. staged tracks the highest sequence handed out
	// by Stage, so staged-committed is the records waiting on a group
	// commit; commitNanos and batchRecs are EWMAs (alpha 1/8) of batch
	// write+fsync latency and records-per-batch, updated once per batch
	// under ioMu.
	staged      atomic.Uint64
	commitNanos atomic.Int64
	batchRecs   atomic.Int64

	// Durability histograms, always live (Observe is a few atomic
	// adds); RegisterObs exposes them for scraping.
	fsyncHist  *obs.Histogram // per-fsync latency, ns
	batchHist  *obs.Histogram // records per group-commit batch
	commitWait *obs.Histogram // per-request commit wait, ns; carries trace exemplars

	statsMu sync.Mutex
	appends uint64
	commits uint64
	syncs   uint64
	snaps   uint64
	removed uint64
}

// Open opens (or creates) the log directory, repairs a torn tail,
// removes the temp files of interrupted snapshot writes, and
// returns the log positioned for appending plus everything recovered
// from disk. Records already covered by the returned snapshot are not
// re-surfaced.
func Open(dir string, opts Options) (*Log, *RecoveredState, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	ok := false
	defer func() {
		if !ok {
			unlockDir(lock)
		}
	}()
	if err := removeSnapshotTemps(dir); err != nil {
		return nil, nil, err
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &RecoveredState{}
	// Newest structurally-valid snapshot wins; corrupt ones fall
	// through to the next-older candidate (or full log replay).
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, seq, err := readSnapshot(snaps[i].path)
		if err != nil {
			continue
		}
		rec.SnapshotSeq = seq
		rec.SnapshotPayload = payload
		break
	}

	// Scan segments oldest-first. Within a segment records must be
	// dense (scanSegment enforces seq = prev+1); across segments the
	// first record must continue exactly where the previous one left
	// off, and the very first record overall must be covered by (or
	// adjacent to) the snapshot horizon. Any gap means a whole chunk
	// of acknowledged history is missing — that is corruption to fail
	// loudly on, never to silently skip. Records the snapshot already
	// covers (a crash can land between snapshot write and compaction)
	// are legitimate; they are simply not re-surfaced.
	lastScanned := uint64(0) // highest record seq seen across segments
	for i := range segs {
		final := i == len(segs)-1
		res, err := scanSegment(segs[i].path)
		if err != nil {
			return nil, nil, err
		}
		if len(res.records) > 0 {
			first := res.records[0].Seq
			if lastScanned == 0 {
				if first > rec.SnapshotSeq+1 {
					return nil, nil, fmt.Errorf("wal: gap: journal starts at seq %d but snapshot covers only <=%d", first, rec.SnapshotSeq)
				}
			} else if first != lastScanned+1 {
				return nil, nil, fmt.Errorf("wal: gap: segment %s starts at seq %d, previous segment ended at %d", segs[i].path, first, lastScanned)
			}
		}
		if res.torn {
			if !final {
				// A later segment exists, so this cannot be an
				// interrupted final write: fail loudly rather than
				// discard acknowledged records.
				return nil, nil, fmt.Errorf("wal: segment %s: corrupt record at offset %d (not the final segment)", segs[i].path, res.validLen)
			}
			if err := os.Truncate(segs[i].path, res.validLen); err != nil {
				return nil, nil, fmt.Errorf("wal: repair %s: %w", segs[i].path, err)
			}
			segs[i].size = res.validLen
			rec.Repaired = true
			// Intact frames after the tear: indistinguishable between
			// out-of-order writeback of an unacknowledged batch (common,
			// harmless) and bit rot ahead of acknowledged records
			// (rare, real loss). Refusing to boot after every power
			// loss is the worse trade, so repair — but flag it.
			rec.SuspectBitRot = res.corrupt
		}
		for _, r := range res.records {
			if r.Seq > rec.SnapshotSeq {
				rec.Records = append(rec.Records, r)
			}
			lastScanned = r.Seq
		}
	}
	lastSeq := rec.SnapshotSeq
	if lastScanned > lastSeq {
		lastSeq = lastScanned
	}

	l := &Log{
		dir:         dir,
		opts:        opts,
		lock:        lock,
		nextSeq:     lastSeq + 1,
		snapSeq:     rec.SnapshotSeq,
		lastWritten: lastSeq,
		segs:        segs,
		fsyncHist:   obs.NewDurationHistogram(),
		batchHist:   obs.NewSizeHistogram(),
		commitWait:  obs.NewDurationHistogram().EnableExemplars(),
	}
	l.committed.Store(lastSeq)
	l.staged.Store(lastSeq)
	l.compactFloor.Store(^uint64(0))
	if len(segs) == 0 {
		if err := l.createSegment(l.nextSeq); err != nil {
			return nil, nil, err
		}
	} else {
		active := &l.segs[len(l.segs)-1]
		f, err := opts.FS.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open active segment: %w", err)
		}
		l.f = f
		l.fSize = active.size
	}
	if rec.Repaired {
		syncDir(dir)
	}
	ok = true
	return l, rec, nil
}

// createSegment makes %016x.wal the active segment. ioMu (or exclusive
// setup) must be held.
func (l *Log) createSegment(firstSeq uint64) error {
	path := filepath.Join(l.dir, segmentName(firstSeq))
	f, err := l.opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f = f
	l.fSize = 0
	l.segs = append(l.segs, segmentInfo{firstSeq: firstSeq, path: path})
	syncDir(l.dir)
	return nil
}

// Ticket is a staged record's claim on durability: Commit blocks until
// the record's batch has been written (and fsynced when configured).
type Ticket struct {
	l   *Log
	seq uint64
	b   *batch
}

// Seq is the sequence number assigned at Stage time.
func (t Ticket) Seq() uint64 { return t.seq }

// Stage assigns the next sequence number and buffers the framed record
// without doing any IO. Callers that need mutation order to match log
// order (provstore does) call Stage under their own write lock and
// Commit outside it, so the fsync wait never blocks other writers from
// staging — that is what lets commits batch.
func (l *Log) Stage(payload []byte) (Ticket, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Ticket{}, ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return Ticket{}, err
	}
	if len(payload) > maxRecordBytes {
		// The reader rejects frames above maxRecordBytes as corruption,
		// so acknowledging one here would write an unrecoverable record.
		l.mu.Unlock()
		return Ticket{}, fmt.Errorf("wal: payload %d bytes exceeds record limit %d", len(payload), maxRecordBytes)
	}
	seq := l.nextSeq
	l.nextSeq++
	l.staged.Store(seq)
	if l.pending == nil && l.spare != nil {
		l.pending = l.spare[:0]
		l.spare = nil
	}
	l.pending = appendRecord(l.pending, seq, payload)
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{})}
	}
	b := l.cur
	l.mu.Unlock()
	l.statsMu.Lock()
	l.appends++
	l.statsMu.Unlock()
	return Ticket{l: l, seq: seq, b: b}, nil
}

// Commit makes the staged record durable. The first committer to reach
// the IO lock becomes the leader: it steals the entire pending buffer
// (its own record plus anything staged since), writes it in one syscall,
// fsyncs once, and wakes every follower waiting on the same batch.
func (t Ticket) Commit() error {
	l := t.l
	if l == nil {
		return errors.New("wal: zero ticket")
	}
	l.ioMu.Lock()
	select {
	case <-t.b.done:
		// A previous leader's batch already covered this record.
		l.ioMu.Unlock()
		return t.b.err
	default:
	}
	// Leader: this ticket's batch is still current (batches are only
	// retired under ioMu), so steal it along with the pending buffer.
	buf, top, b := l.steal()
	err := l.commitBuf(buf, top)
	b.err = err
	close(b.done)
	l.ioMu.Unlock()
	return err
}

// CommitCtx is Commit bounded by ctx: it returns ctx.Err() if the
// context ends before the record's batch reaches disk. The record
// itself is already sequenced — abandoning the wait cannot un-stage
// it — so the commit is handed to a background goroutine and still
// completes; only the caller stops burning a thread on the fsync wait.
// Like any timed-out write, the outcome is ambiguous to the caller:
// the record may or may not be durable. Contexts that cannot be
// canceled take the exact Commit fast path (no goroutine).
func (t Ticket) CommitCtx(ctx context.Context) error {
	if ctx == nil || ctx.Done() == nil {
		return t.Commit()
	}
	if t.l == nil {
		return errors.New("wal: zero ticket")
	}
	select {
	case <-t.b.done:
		return t.b.err
	default:
	}
	res := make(chan error, 1)
	go func() { res <- t.Commit() }()
	select {
	case err := <-res:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Append stages and commits in one call.
func (l *Log) Append(payload []byte) (uint64, error) {
	t, err := l.Stage(payload)
	if err != nil {
		return 0, err
	}
	return t.seq, t.Commit()
}

// steal detaches the pending buffer and its batch. ioMu must be held.
// top is the highest staged sequence number (== last record in buf).
func (l *Log) steal() (buf []byte, top uint64, b *batch) {
	l.mu.Lock()
	buf = l.pending
	l.pending = nil
	b = l.cur
	l.cur = nil
	top = l.nextSeq - 1
	l.mu.Unlock()
	return buf, top, b
}

// commitBuf writes one batch to the active segment, fsyncs per Options,
// and rotates when the segment crosses the size threshold. ioMu held.
func (l *Log) commitBuf(buf []byte, top uint64) error {
	// Fail-stop: a prior failed write already dropped records from the
	// buffer, so writing anything more would leave a sequence gap on
	// disk that recovery would truncate acknowledged records at.
	if err := l.failedErr(); err != nil {
		return err
	}
	if len(buf) == 0 {
		return nil
	}
	defer l.recycle(buf)
	recs := int64(top - l.lastWritten)
	start := time.Now()
	if _, err := l.f.Write(buf); err != nil {
		return l.setFailed(fmt.Errorf("wal: write: %w", err))
	}
	l.fSize += int64(len(buf))
	l.segs[len(l.segs)-1].size = l.fSize
	l.lastWritten = top
	if l.opts.Fsync {
		fsyncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			return l.setFailed(fmt.Errorf("wal: fsync: %w", err))
		}
		l.fsyncHist.ObserveSince(fsyncStart)
	}
	l.batchHist.Observe(recs)
	l.observeCommit(time.Since(start), recs)
	l.statsMu.Lock()
	l.commits++
	if l.opts.Fsync {
		l.syncs++
	}
	l.statsMu.Unlock()
	// Publish only after the batch is as durable as an acknowledgment:
	// a follower must never hold records a crashed primary would not
	// recover, or the two histories diverge on restart.
	l.advanceCommitted(top)
	if l.fSize >= l.opts.SegmentBytes {
		if err := l.rotate(top + 1); err != nil {
			return l.setFailed(err)
		}
	}
	return nil
}

// observeCommit folds one batch's write+fsync latency and record count
// into the EWMAs behind EstimateCommitWait. Single writer (ioMu held),
// so plain load/store is race-free against the lock-free readers.
func (l *Log) observeCommit(d time.Duration, recs int64) {
	if prev := l.commitNanos.Load(); prev == 0 {
		l.commitNanos.Store(int64(d))
	} else {
		l.commitNanos.Store(prev + (int64(d)-prev)/8)
	}
	if recs < 1 {
		recs = 1
	}
	if prev := l.batchRecs.Load(); prev == 0 {
		l.batchRecs.Store(recs)
	} else {
		l.batchRecs.Store(prev + (recs-prev)/8)
	}
}

// ObserveCommitWait folds one request's measured commit wait into the
// per-request commit-wait histogram, attributing the trace ID as the
// affected bucket's exemplar. The store calls this around
// Ticket.CommitCtx — the wait is per request, unlike the per-batch
// fsync and batch-size histograms observed by the commit leader.
func (l *Log) ObserveCommitWait(d time.Duration, traceID string) {
	l.commitWait.ObserveDurationExemplar(d, traceID)
}

// RegisterObs exposes the log's durability instruments on reg: fsync
// latency and group-commit batch-size histograms, the live
// commit-queue depth, and the operation counters behind Stats.
// Nil-safe on reg.
func (l *Log) RegisterObs(reg *obs.Registry) {
	reg.RegisterHistogram("yprov_wal_fsync_seconds",
		"Latency of WAL fsync calls on the group-commit path.", nil, l.fsyncHist)
	reg.RegisterHistogram("yprov_wal_group_commit_records",
		"Records per WAL group-commit batch.", nil, l.batchHist)
	reg.RegisterHistogram("yprov_wal_commit_wait_seconds",
		"Time one request waits for its group commit, trace-exemplared.", nil, l.commitWait)
	reg.RegisterGaugeFunc("yprov_wal_commit_queue_depth",
		"Staged records whose group commit has not yet reached disk.", nil,
		func() float64 { return float64(l.QueueDepth()) })
	reg.RegisterGaugeFunc("yprov_wal_commit_latency_seconds",
		"Smoothed write+fsync latency of recent commit batches.", nil,
		func() float64 { return l.CommitLatency().Seconds() })
	reg.RegisterGaugeFunc("yprov_wal_committed_seq",
		"Highest sequence durably committed to the journal.", nil,
		func() float64 { return float64(l.CommittedSeq()) })
	counter := func(name, help string, v *uint64) {
		reg.RegisterCounterFunc(name, help, nil, func() float64 {
			l.statsMu.Lock()
			defer l.statsMu.Unlock()
			return float64(*v)
		})
	}
	counter("yprov_wal_appends_total", "Records staged to the WAL.", &l.appends)
	counter("yprov_wal_commits_total", "Group-commit batches written.", &l.commits)
	counter("yprov_wal_syncs_total", "fsync calls issued by group commit.", &l.syncs)
	counter("yprov_wal_snapshots_total", "Snapshots written.", &l.snaps)
	counter("yprov_wal_segments_removed_total", "Segments deleted by compaction.", &l.removed)
}

// QueueDepth reports the number of staged records whose group commit
// has not yet reached disk — the WAL's commit-queue depth. Lock-free;
// admission control reads it on every write admission decision.
func (l *Log) QueueDepth() int64 {
	d := int64(l.staged.Load()) - int64(l.committed.Load())
	if d < 0 {
		return 0
	}
	return d
}

// CommitLatency reports the smoothed write+fsync latency of recent
// commit batches (0 until the first batch lands).
func (l *Log) CommitLatency() time.Duration {
	return time.Duration(l.commitNanos.Load())
}

// EstimateCommitWait estimates how long a record staged right now would
// wait for durability: queue depth divided by the smoothed batch size,
// times the smoothed batch latency. It is a shedding signal, not a
// promise — group commit absorbs bursts, so the estimate is pessimistic
// exactly when the queue is deep, which is when admission control wants
// pessimism.
func (l *Log) EstimateCommitWait() time.Duration {
	depth := l.QueueDepth()
	if depth == 0 {
		return 0
	}
	lat := l.commitNanos.Load()
	if lat == 0 {
		return 0
	}
	recs := l.batchRecs.Load()
	if recs < 1 {
		recs = 1
	}
	batches := (depth + recs - 1) / recs
	return time.Duration(batches * lat)
}

// advanceCommitted raises the committed watermark and wakes every
// WaitCommitted subscriber. The watermark is published before the wake
// channel is consumed, so a woken (or newly arriving) waiter always
// observes the advance. With no subscribers the advance is a single
// atomic store plus a mutex round trip — no per-commit allocation.
func (l *Log) advanceCommitted(seq uint64) {
	if seq <= l.committed.Load() {
		return
	}
	l.committed.Store(seq)
	l.tailMu.Lock()
	ch := l.tailCh
	l.tailCh = nil
	l.tailMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// CommittedSeq reports the highest sequence number that is safe to
// stream to replication readers (see the committed field).
func (l *Log) CommittedSeq() uint64 { return l.committed.Load() }

// NextSeq reports the sequence number the next Stage will assign. A
// follower checks it BEFORE staging a replicated record, so a cursor
// mismatch is rejected while the log is still untouched.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// SetCompactFloor installs the replication cursor: Compact keeps every
// record with sequence > seq on disk regardless of snapshot coverage,
// so followers that have only streamed up to seq can still catch up
// incrementally. Pass MaxUint64 to lift the restriction (no followers).
func (l *Log) SetCompactFloor(seq uint64) { l.compactFloor.Store(seq) }

// SnapshotSeq reports the latest durable snapshot horizon.
func (l *Log) SnapshotSeq() uint64 {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.snapSeq
}

// WaitCommitted blocks until the committed watermark exceeds after, the
// log closes, or cancel fires. ok is false when no further progress
// will be observable (close/cancel).
func (l *Log) WaitCommitted(after uint64, cancel <-chan struct{}) (seq uint64, ok bool) {
	for {
		l.tailMu.Lock()
		if l.tailCh == nil && !l.tailDone {
			l.tailCh = make(chan struct{})
		}
		ch := l.tailCh
		done := l.tailDone
		l.tailMu.Unlock()
		// Re-check only after the wake channel is registered: an advance
		// that lands in between will close the captured channel, so the
		// wakeup cannot be lost.
		if cur := l.committed.Load(); cur > after {
			return cur, true
		}
		if done {
			return l.committed.Load(), false
		}
		select {
		case <-ch:
		case <-cancel:
			return l.committed.Load(), false
		}
	}
}

// setFailed latches the first IO error; later callers see it from
// Stage/Sync/WriteSnapshot.
func (l *Log) setFailed(err error) error {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.mu.Unlock()
	return err
}

// failedErr returns the latched IO error, if any.
func (l *Log) failedErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Failed reports the latched fail-stop error (nil while healthy). Once
// non-nil the log acknowledges nothing further; health endpoints
// surface this so operators see a latched primary, not silent 503s.
func (l *Log) Failed() error { return l.failedErr() }

// maxRecycledBuf caps the batch buffer kept for reuse: one oversized
// record must not pin its peak allocation for the log's lifetime.
const maxRecycledBuf = 1 << 20

// recycle hands the written buffer back to the staging side so steady
// load reuses one allocation per in-flight batch.
func (l *Log) recycle(buf []byte) {
	if cap(buf) > maxRecycledBuf {
		return
	}
	l.mu.Lock()
	if l.spare == nil {
		l.spare = buf[:0]
	}
	l.mu.Unlock()
}

// rotate finalizes the active segment and opens a fresh one whose name
// is exactly lastWritten+1, preserving the compaction invariant. ioMu
// must be held, firstSeq must be lastWritten+1.
func (l *Log) rotate(firstSeq uint64) error {
	if err := l.f.Sync(); err != nil { // a finished segment is always durable
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	l.statsMu.Lock()
	l.syncs++
	l.statsMu.Unlock()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.createSegment(firstSeq)
}

// Sync flushes any staged-but-uncommitted records and fsyncs the active
// segment regardless of Options.Fsync.
func (l *Log) Sync() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.flushAndSync()
}

// flushAndSync drains pending and forces an fsync. ioMu held.
func (l *Log) flushAndSync() error {
	buf, top, b := l.steal()
	err := l.commitBuf(buf, top)
	if err == nil {
		err = l.failedErr() // empty flushes must still respect fail-stop
	}
	if err == nil && l.f != nil {
		if serr := l.f.Sync(); serr != nil {
			err = l.setFailed(fmt.Errorf("wal: fsync: %w", serr))
		} else {
			l.statsMu.Lock()
			l.syncs++
			l.statsMu.Unlock()
		}
	}
	if b != nil {
		b.err = err
		close(b.done)
	}
	return err
}

// Close flushes pending records, fsyncs, and closes the active segment.
// Staging after Close returns ErrClosed; in-flight Commits are completed
// by the close-time flush.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	l.mu.Unlock()

	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	err := l.flushAndSync()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	// Wake replication tails so streams end instead of waiting forever.
	l.tailMu.Lock()
	if !l.tailDone {
		l.tailDone = true
		if l.tailCh != nil {
			close(l.tailCh)
			l.tailCh = nil
		}
	}
	l.tailMu.Unlock()
	unlockDir(l.lock)
	return err
}

// LatestSnapshot returns the newest structurally-valid snapshot on
// disk (payload, covered sequence). ok is false when none exists.
func (l *Log) LatestSnapshot() (payload []byte, seq uint64, ok bool, err error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	_, snaps, err := scanDir(l.dir)
	if err != nil {
		return nil, 0, false, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, seq, err := readSnapshot(snaps[i].path)
		if err != nil {
			continue
		}
		return payload, seq, true, nil
	}
	return nil, 0, false, nil
}

// LagBytes estimates the on-disk bytes of records with sequence > from:
// full sizes for segments entirely after from, a proportional share of
// the segment containing it. Replication surfaces this as a follower's
// byte lag — an estimate at sub-segment granularity, exact above it.
func (l *Log) LagBytes(from uint64) int64 {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if from >= l.lastWritten {
		return 0
	}
	var lag int64
	for i, seg := range l.segs {
		// Records in seg i span [firstSeq(i), lastOf(i)] where lastOf is
		// firstSeq(i+1)-1 for sealed segments and lastWritten for the
		// active one.
		lastOf := l.lastWritten
		if i+1 < len(l.segs) {
			lastOf = l.segs[i+1].firstSeq - 1
		}
		switch {
		case lastOf <= from:
			continue
		case seg.firstSeq > from:
			lag += seg.size
		default:
			span := lastOf - seg.firstSeq + 1
			behind := lastOf - from
			lag += seg.size * int64(behind) / int64(span)
		}
	}
	return lag
}

// HasState reports whether dir already holds any WAL segments or
// snapshots — i.e. whether opening it would recover history rather
// than start fresh. Used by replication bootstrap to decide between
// resuming from local state and fetching the primary's snapshot.
func HasState(dir string) (bool, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return false, nil
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return false, err
	}
	return len(segs) > 0 || len(snaps) > 0, nil
}

// Stats reports the current log shape and activity counters.
func (l *Log) Stats() Stats {
	l.ioMu.Lock()
	var disk int64
	for _, s := range l.segs {
		disk += s.size
	}
	segs := len(l.segs)
	snapSeq := l.snapSeq
	last := l.lastWritten
	l.ioMu.Unlock()

	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	return Stats{
		LastSeq:         last,
		SnapshotSeq:     snapSeq,
		Segments:        segs,
		DiskBytes:       disk,
		Appends:         l.appends,
		Commits:         l.commits,
		Syncs:           l.syncs,
		Snapshots:       l.snaps,
		SegmentsRemoved: l.removed,
		QueueDepth:      l.QueueDepth(),
		CommitLatencyUs: l.commitNanos.Load() / int64(time.Microsecond),
	}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }
