package provstore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// ErrJournal wraps every journal (write-ahead log) failure surfaced by
// Put/Delete, so callers — the HTTP service in particular — can tell a
// server-side durability outage apart from a bad request.
var ErrJournal = errors.New("provstore: journal failure")

// ErrReadOnly is returned by every local mutation on a follower store:
// replicas only change state through ApplyReplicated, never through
// client writes. The HTTP layer maps it to 403 with a primary hint.
var ErrReadOnly = errors.New("provstore: store is a read-only replica")

// Durability: the store journals every Put/Delete to a single
// write-ahead log before acknowledging it (one log, global sequencing,
// regardless of shard count), periodically snapshots the full document
// set, and compacts the log down to snapshot + tail. A journal record
// and a snapshot store each document as the binary blob its entry
// keeps, encoded once when the document was written, so a checkpoint
// concatenates blobs and encodes nothing; the file it writes is still
// the whole store. Open replays whatever a
// previous process left behind — including a torn final record from a
// crash mid-write, which is truncated, not fatal.
//
// Shard compatibility: each journaled record carries the shard index it
// was applied to at write time, but recovery always re-derives the
// owning shard from the document id hash, so a data directory written
// under one -shards value replays into any other.
//
// Format: Open reads only what this build writes (codec.go). A
// directory holding an earlier build's records, snapshot or document
// blobs, or a pre-WAL directory of PROV-JSON files, is refused with
// ErrLegacyFormat; Upgrade (upgrade.go, `yprov upgrade`) converts it
// offline.

// Durability configures the journaled store returned by Open.
type Durability struct {
	// Fsync makes every acknowledged mutation survive power loss, at
	// the cost of one (group-committed) fsync per batch. Off, the OS
	// page cache bounds the loss window to a kernel crash.
	Fsync bool
	// SnapshotEvery is the number of mutations between automatic
	// snapshot+compaction cycles (default 256; negative disables).
	SnapshotEvery int
	// SegmentBytes overrides the WAL segment rotation threshold.
	SegmentBytes int64
	// Shards is the shard count for the recovered store (rounded up to
	// a power of two, capped at 256; <= 0 selects the GOMAXPROCS
	// default). Any value opens any data directory: shard assignment is
	// re-derived from document ids at recovery.
	Shards int
	// Follower opens the store in read-only apply mode: local mutations
	// return ErrReadOnly and state only advances through ApplyReplicated
	// records shipped from a primary's log. The local WAL is still
	// written (the follower keeps its own durable copy), snapshotted,
	// and compacted, so restarts resume from local state.
	Follower bool
	// FS supplies the journal's segment files (nil = the real
	// filesystem). Chaos tests inject a wal.FaultFS here to drive IO
	// failures through the exact code paths a dying disk would take.
	FS wal.FS
}

const defaultSnapshotEvery = 256

// DurabilityStats extends the raw WAL counters with store-level
// checkpoint state for the /stats endpoint.
type DurabilityStats struct {
	wal.Stats
	SnapshotEvery  int    `json:"snapshot_every"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// LastSnapshotError is the most recent checkpoint failure (empty =
	// none): background checkpoints only count failures, so this is
	// where the reason surfaces for operators.
	LastSnapshotError string `json:"last_snapshot_error,omitempty"`
	// SuspectBitRot: recovery truncated the journal tail ahead of
	// intact record frames — possibly bit rot over acknowledged data
	// rather than an interrupted batch write (see
	// wal.RecoveredState.SuspectBitRot).
	SuspectBitRot bool `json:"suspect_bit_rot,omitempty"`
	// FailStop is the journal's latched fail-stop reason (empty while
	// healthy). Once set the store acknowledges no further mutations;
	// /healthz reports the primary degraded with this string.
	FailStop string `json:"fail_stop,omitempty"`
	// LastCheckpointMs is how long the most recent checkpoint took,
	// capture to compaction. CheckpointDocs counts the documents all
	// checkpoints so far put into a snapshot.
	LastCheckpointMs float64 `json:"last_checkpoint_ms"`
	CheckpointDocs   uint64  `json:"checkpoint_docs"`
	// Recovery is what Open read back and how long it took.
	Recovery RecoveryStats `json:"recovery"`
}

// RecoveryStats reports Open's recovery: the snapshot's documents and
// payload bytes, the journal tail's records and payload bytes, the time
// each took to decode and apply, and the time of the whole Open, which
// reads the files too.
type RecoveryStats struct {
	SnapshotDocs  int     `json:"snapshot_docs"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	SnapshotMs    float64 `json:"snapshot_ms"`
	TailRecords   int     `json:"tail_records"`
	TailBytes     int     `json:"tail_bytes"`
	TailMs        float64 `json:"tail_ms"`
	TotalMs       float64 `json:"total_ms"`
}

// Open builds a store whose state is durably backed by a write-ahead
// log under dir. It recovers the latest snapshot plus every journaled
// mutation after it, then resumes journaling. The returned store must
// be Closed to flush the final batch.
func Open(dir string, d Durability) (*Store, error) {
	start := time.Now()
	if d.SnapshotEvery == 0 {
		d.SnapshotEvery = defaultSnapshotEvery
	}
	// Checked before wal.Open, which would start a journal beside the
	// files and so hide them from this check for good. A missing or
	// unreadable dir lists none: wal.Open creates it or fails on it.
	if names, _ := preWALFiles(dir); len(names) > 0 {
		return nil, fmt.Errorf("%w: %s holds %d PROV-JSON file(s) and no journal", ErrLegacyFormat, dir, len(names))
	}
	l, rec, err := wal.Open(dir, wal.Options{Fsync: d.Fsync, SegmentBytes: d.SegmentBytes, FS: d.FS})
	if err != nil {
		return nil, err
	}
	s := NewSharded(d.Shards)
	if err := s.restore(rec, decodeRecordPayload, decodeSnapshot); err != nil {
		_ = l.Close()
		return nil, err
	}
	s.wal = l
	s.snapshotEvery = d.SnapshotEvery
	s.lastApplied.Store(rec.LastSeq())
	s.suspectBitRot = rec.SuspectBitRot
	s.follower = d.Follower
	s.recovery.TotalMs = msSince(start)
	return s, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// SuspectBitRot reports whether recovery truncated the journal tail
// ahead of intact record frames (see wal.RecoveredState.SuspectBitRot).
// Callers running a server should log this loudly at boot.
func (s *Store) SuspectBitRot() bool { return s.suspectBitRot }

// restore replays a recovered snapshot and journal tail, read by
// decodeSnap and decodeRec, into the (not-yet-journaling,
// not-yet-published) store through the ordinary mutation pipeline; its
// shard locks are uncontended here. Every document routes to its
// hash-derived shard — the recorded shard hints are ignored, which is
// what makes different shard counts interchangeable. It records what
// it read, and how long each part took, in s.recovery.
func (s *Store) restore(rec *wal.RecoveredState, decodeRec func([]byte, uint64) (mutation, error), decodeSnap func([]byte) (mutation, error)) error {
	ctx := context.TODO() // Open takes no context; recovery is not cancellable
	start := time.Now()
	snap, err := decodeSnap(rec.SnapshotPayload)
	if err != nil {
		return err
	}
	if len(snap.ops) > 0 {
		snap.seq = rec.SnapshotSeq
		if _, err := s.apply(ctx, &snap); err != nil {
			return fmt.Errorf("provstore: recover snapshot: %w", err)
		}
	}
	s.recovery.SnapshotDocs = len(snap.ops)
	s.recovery.SnapshotBytes = len(rec.SnapshotPayload)
	s.recovery.SnapshotMs = msSince(start)
	start = time.Now()
	for _, r := range rec.Records {
		m, err := decodeRec(r.Payload, r.Seq)
		if err != nil {
			return err
		}
		m.seq = r.Seq
		if _, err := s.apply(ctx, &m); err != nil {
			return fmt.Errorf("provstore: recover journal seq %d: %w", r.Seq, err)
		}
		s.recovery.TailBytes += len(r.Payload)
	}
	s.recovery.TailRecords = len(rec.Records)
	s.recovery.TailMs = msSince(start)
	return nil
}

// maybeSnapshot triggers a checkpoint every SnapshotEvery mutations,
// on a background goroutine so the unlucky SnapshotEvery-th writer does
// not absorb the full-snapshot write + fsync latency. Errors
// are counted (surfaced via Stats), not returned: the mutation itself
// is already durable in the log, so a failed snapshot only delays
// compaction. If a checkpoint is still running, the trigger is skipped
// — the cadence counter will fire again.
func (s *Store) maybeSnapshot(n int) {
	if s.snapshotEvery <= 0 || n <= 0 {
		return
	}
	// A batch bumps the counter by its size; trigger when the cadence
	// boundary is crossed anywhere inside the increment.
	every := uint64(s.snapshotEvery)
	c := atomic.AddUint64(&s.mutations, uint64(n))
	if c/every == (c-uint64(n))/every {
		return
	}
	if !s.snapMu.TryLock() {
		return // checkpoint already in flight
	}
	go func() {
		defer s.snapMu.Unlock()
		if err := s.checkpointLocked(); err != nil {
			atomic.AddUint64(&s.snapErrs, 1)
			s.lastSnapErr.Store(err.Error())
		}
	}()
}

// Checkpoint snapshots the full document set at the current journal
// position and compacts segments (and snapshots) the new snapshot
// supersedes. Safe to call concurrently with mutations: the snapshot
// captures a consistent sequence-stamped view, and records staged after
// it simply replay on top at recovery.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked does the snapshot+compact cycle. snapMu must be
// held. Every shard is read-locked simultaneously (in index order)
// while the entry set is captured: staging happens under shard write
// locks, so the quiesced view contains exactly the mutations up to the
// lastApplied high-water mark — nothing in flight, nothing missing.
// Outside the locks, appendSnapshot concatenates the entries' blobs;
// writing the payload and compacting are proportional to the store.
func (s *Store) checkpointLocked() error {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.checkpointTime.ObserveDuration(d)
		s.lastCheckpointNanos.Store(int64(d))
	}()
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	seq := s.lastApplied.Load()
	var entries []*entry
	for _, sh := range s.shards {
		for _, e := range sh.docs {
			entries = append(entries, e)
		}
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}

	payload := appendSnapshot(nil, entries, len(s.shards))
	s.checkpointDocs.Add(uint64(len(entries)))
	if err := s.wal.WriteSnapshot(seq, payload); err != nil {
		return fmt.Errorf("provstore: checkpoint: %w", err)
	}
	s.checkpointBytes.Add(uint64(len(payload)))
	if _, err := s.wal.Compact(); err != nil {
		return fmt.Errorf("provstore: checkpoint compact: %w", err)
	}
	return nil
}

// FailStop reports the journal's latched fail-stop reason, empty while
// healthy (and always for in-memory stores). Health endpoints surface
// it so a latched primary shows up as degraded instead of as a stream
// of unexplained 503s.
func (s *Store) FailStop() string {
	if s.wal == nil {
		return ""
	}
	if err := s.wal.Failed(); err != nil {
		return err.Error()
	}
	return ""
}

// CommitWait reports the estimated group-commit wait a write admitted
// now would see; zero for in-memory stores. Lock-free; admission
// control calls this on every write.
func (s *Store) CommitWait() time.Duration {
	if s.wal == nil {
		return 0
	}
	return s.wal.EstimateCommitWait()
}

// Sync forces any pending journal records to disk. A no-op for
// in-memory stores.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Close flushes and closes the journal, waiting out any checkpoint
// still running in the background. Further mutations fail; reads keep
// working. A no-op for in-memory stores, and idempotent.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	s.snapMu.Lock() // drain an in-flight background checkpoint
	defer s.snapMu.Unlock()
	if err := s.wal.Close(); err != nil && err != wal.ErrClosed {
		return err
	}
	return nil
}
