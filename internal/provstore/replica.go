package provstore

import (
	"context"
	"fmt"

	"repro/internal/wal"
)

// Follower apply mode. A follower store replays the primary's journal
// records as they arrive over the replication stream: each record is a
// mutation through the ordinary pipeline (mutation.go), staged into the
// follower's own WAL under the primary's sequence number — the local
// log's next sequence is always the replication cursor, so the two
// histories stay byte-compatible. Shard placement is re-derived from
// document id hashes exactly like recovery does, so a follower may run
// a different -shards value than its primary.

// Follower reports whether the store is a read-only replica.
func (s *Store) Follower() bool { return s.follower }

// Version is the store's applied counter: the sequence of the newest
// mutation visible to readers, and the version store-wide reads (list,
// search, cross-document lineage) validate against. It advances under
// the shard locks of the mutation that moves it, so a reader that has
// seen a value and then reads any shard sees every mutation up to it.
func (s *Store) Version() uint64 { return s.lastApplied.Load() }

// AppliedSeq is Version as a position in the journal: on a primary it
// advances as writes are staged; on a follower, as replicated records
// are applied. Zero for in-memory stores, whose counter names no
// journal record — the write token and the replication cursor built on
// AppliedSeq mean nothing there.
func (s *Store) AppliedSeq() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.lastApplied.Load()
}

// Log exposes the store's write-ahead log for replication (the
// primary's stream server reads segments and tails commits through
// it). Nil for in-memory stores.
func (s *Store) Log() *wal.Log { return s.wal }

// ApplyReplicated ingests one record from the primary's log as one
// mutation, staging the payload verbatim into the local journal. The
// returned ticket is NOT yet committed — the caller groups commits
// across a burst of records so a catch-up stream costs one fsync per
// group, and must Commit the last ticket of each burst before
// acknowledging anything to the primary.
//
// Records at or below the applied watermark are skipped (ok=false) so
// reconnect overlap is harmless; a record further ahead than
// watermark+1 is a stream gap and fails loudly. Both that check and the
// local-journal cursor check happen BEFORE anything is staged, so a
// failed apply leaves the local WAL untouched — retries cannot
// accumulate records the primary never had.
func (s *Store) ApplyReplicated(rec wal.Record) (t wal.Ticket, ok bool, err error) {
	if !s.follower {
		return wal.Ticket{}, false, fmt.Errorf("provstore: ApplyReplicated on a non-follower store")
	}
	expect := s.lastApplied.Load() + 1
	if rec.Seq < expect {
		return wal.Ticket{}, false, nil
	}
	if rec.Seq > expect {
		return wal.Ticket{}, false, fmt.Errorf("provstore: replication gap: got seq %d, want %d", rec.Seq, expect)
	}
	if next := s.wal.NextSeq(); next != rec.Seq {
		// The local log diverged from the replication cursor — an
		// invariant violation that must halt the apply loop before it
		// writes a history the primary never had.
		return wal.Ticket{}, false, fmt.Errorf("provstore: local journal at seq %d cannot hold replicated record %d", next, rec.Seq)
	}
	m, err := decodeRecordPayload(rec.Payload, rec.Seq)
	if err != nil {
		return wal.Ticket{}, false, err
	}
	m.record = rec.Payload
	// The stream hands records over one at a time with no deadline.
	if t, err = s.apply(context.TODO(), &m); err != nil {
		return wal.Ticket{}, false, err
	}
	s.maybeSnapshot(len(m.ops))
	if s.applyObs != nil {
		s.applyObs(rec.Seq, m.opLabel(), m.trace)
	}
	return t, true, nil
}
