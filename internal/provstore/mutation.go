package provstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/wal"
)

// The write path. Every state change — a local put, delete or batch, a
// record replicated from a primary, a record or snapshot replayed at
// recovery — is a mutation run through Store.apply, the only code that
// indexes documents, locks shards, stages to the journal, rolls back,
// stamps each installed entry with its sequence and advances the store's
// applied counter (README, "Write path").

// Op is one step of a mutation: store Doc under ID, or, when Doc is
// nil, delete ID.
type Op struct {
	ID string
	// Doc becomes the store's: it is installed as given, not copied, so
	// nothing may change it once the op is handed to Apply.
	Doc *prov.Document
	// Raw, when set, is the PROV-JSON Doc was parsed from. It is
	// journaled verbatim, which spares the hot path a re-encode; the
	// HTTP batch handler passes each line's doc bytes through. When nil
	// the store encodes Doc itself.
	// Raw stays the caller's and may alias a buffer of theirs (the
	// batch handler passes a span of the request line): Apply copies
	// it into the journal record before it takes a lock and reads it
	// no more after that, so the buffer must only hold still until
	// Apply returns.
	Raw []byte
}

// mutation is an ordered list of ops applied all-or-nothing, plus the
// few things that differ between the callers of Store.apply.
type mutation struct {
	ops []Op
	// lenient: deleting a missing id is a no-op — replay and replication
	// apply history that was already accepted — rather than the error
	// the local API reports.
	lenient bool
	// trace is the originating request's trace ID: primaries encode it
	// into the record, followers hand it to the apply observer.
	trace string
	// record, when non-nil, is staged to the journal under the shard
	// locks: a primary's encoding of ops, or on a follower the primary's
	// payload verbatim (it lands on the primary's sequence because the
	// local log's next sequence is the replication cursor). With no
	// record, seq is the sequence the mutation already holds in the
	// journal (recovery); zero takes the next tick of the store's applied
	// counter (in-memory stores, which have no journal to number them).
	record []byte
	seq    uint64
	// blobs, when non-nil, runs parallel to ops: blobs[i] is the binary
	// encoding of ops[i].Doc that the entry built for it keeps
	// (entry.blob) instead of the document, or nil. The mutation owns
	// them. Only a decoded snapshot has any (decodeSnapshotInto).
	blobs [][]byte
}

// opLabel names the mutation for the apply observer.
func (m *mutation) opLabel() string {
	switch {
	case len(m.ops) != 1:
		return "batch"
	case m.ops[0].Doc == nil:
		return "delete"
	default:
		return "put"
	}
}

// Apply runs ops as one atomic unit: either all of them become visible
// and durable together, or none do and the store is left exactly as it
// was. A delete of a missing id, an empty or repeated id, or an invalid
// document fails the whole call. On journaled stores the mutation is
// one log record — one Stage, one group-commit ticket, one fsync — and,
// because a record is the WAL's atomicity unit, crash recovery replays
// all of it or none of it. Apply returns once that record is durable.
// ops is sorted by ID in place (the journal order is deterministic
// whatever order the caller collected them in); an empty list is a
// no-op. Apply keeps every Op.Doc: the documents are stored as given,
// with no copy made, and must not be touched again by the caller,
// whether the call succeeds or fails. Put and PutBatch are the
// wrappers for callers that go on using their documents.
//
// ctx bounds the two points a request can queue: the shard locks (an
// expired request applies nothing, stages nothing and consumes no
// group-commit ticket) and the durability wait (the caller stops
// waiting; the staged record still becomes durable, so the outcome is
// ambiguous to the caller like any timed-out write). Expiry surfaces
// as the context's own error, never wrapped in ErrJournal.
func (s *Store) Apply(ctx context.Context, ops []Op) error {
	if s.follower {
		return ErrReadOnly
	}
	if len(ops) == 0 {
		return nil
	}
	if len(ops) > 1 {
		slices.SortFunc(ops, func(a, b Op) int { return cmp.Compare(a.ID, b.ID) })
	}
	// Validate everything before touching any shard: a bad op must
	// reject the mutation without lock traffic or partial application.
	for i := range ops {
		op := &ops[i]
		if op.ID == "" {
			return fmt.Errorf("provstore: empty document id")
		}
		if i > 0 && ops[i-1].ID == op.ID {
			return fmt.Errorf("provstore: duplicate id %q in one mutation", op.ID)
		}
		if op.Doc != nil {
			if _, err := op.Doc.Validate(); err != nil {
				return fmt.Errorf("provstore: refusing invalid document %q: %w", op.ID, err)
			}
		}
	}
	m := mutation{ops: ops, trace: obs.FromContext(ctx).ID()}
	if s.wal != nil {
		// Encoded before the locks are taken, into pooled scratch:
		// wal.Stage copies the payload, so the buffer is recyclable once
		// this call returns.
		m.record = appendRecord(getOpBuf(), ops, s.mask, m.trace)
		defer putOpBuf(m.record)
	}
	t, err := s.apply(ctx, &m)
	if err != nil || m.record == nil {
		return err
	}
	return s.commit(ctx, t, len(ops))
}

// apply is the mutation pipeline: build the entry — document plus
// traversal index — of every document the mutation stores, then take
// the owning shard locks in ascending order, swap the entries in
// remembering what each displaced, stage the record, and — if an op or
// staging failed — swap the displaced entries back, so a failed
// mutation is invisible to readers, later snapshots and replay (an
// un-journaled change left readable would be made durable by the next
// checkpoint although its caller was told it failed). All the work
// proportional to a document happens before the locks; under them a
// put, replace or delete is a pointer swap. Staging under the locks
// makes log order match apply order per document. On success every
// installed entry is stamped with the mutation's sequence and the
// store's applied counter advances, both before the locks drop, so no
// reader can observe the new state under an old version. The returned
// ticket is not yet committed.
func (s *Store) apply(ctx context.Context, m *mutation) (t wal.Ticket, err error) {
	if err = ctx.Err(); err != nil {
		return t, err
	}
	tr := obs.FromContext(ctx)
	// slots[i] holds what ops[i] installs (nil deletes) and, once it is
	// swapped in, what it displaced. A one-op mutation allocates neither
	// list.
	type slot struct{ installed, displaced *entry }
	var oneSlot [1]slot
	slots := oneSlot[:]
	if len(m.ops) > 1 {
		slots = make([]slot, len(m.ops))
	}
	span := tr.StartSpan("project")
	for i := range m.ops {
		if op := &m.ops[i]; op.Doc != nil {
			var blob []byte
			if m.blobs != nil {
				blob = m.blobs[i]
			}
			if slots[i].installed, err = newEntry(op.ID, op.Doc, blob); err != nil {
				err = fmt.Errorf("provstore: put %q: %w", op.ID, err)
				break
			}
		}
	}
	span.End()
	if err != nil {
		return t, err
	}

	var oneShard [1]uint32
	idxs := s.ownerShards(m.ops, oneShard[:0])
	s.lockShards(idxs, tr)
	defer s.unlockShards(idxs)
	if err = ctx.Err(); err != nil {
		return t, err // expired while queued on the locks
	}

	swapped := 0
	for ; swapped < len(m.ops); swapped++ {
		id := m.ops[swapped].ID
		sh := s.shardFor(id)
		if slots[swapped].installed == nil && sh.docs[id] == nil && !m.lenient {
			err = fmt.Errorf("provstore: document %q does not exist", id)
			break
		}
		slots[swapped].displaced = sh.swap(id, slots[swapped].installed)
	}

	span = tr.StartSpan("stage")
	if err == nil && m.record != nil {
		if t, err = s.wal.Stage(m.record); err != nil {
			err = fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	span.End()

	if err != nil {
		for i := swapped - 1; i >= 0; i-- {
			id := m.ops[i].ID
			s.shardFor(id).swap(id, slots[i].displaced)
		}
		return wal.Ticket{}, err
	}

	seq := m.seq
	if m.record != nil {
		seq = t.Seq()
	}
	if seq != 0 {
		s.noteApplied(seq)
	} else {
		seq = s.lastApplied.Add(1)
	}
	for i := range slots {
		if e := slots[i].installed; e != nil {
			e.seq = seq
		}
	}
	return t, nil
}

// ownerShards appends the ascending, deduplicated indices of the shards
// owning ops to idxs.
func (s *Store) ownerShards(ops []Op, idxs []uint32) []uint32 {
	for i := range ops {
		idxs = append(idxs, s.shardIndex(ops[i].ID))
	}
	if len(idxs) > 1 {
		slices.Sort(idxs)
		idxs = slices.Compact(idxs)
	}
	return idxs
}

// lockShards write-locks the given shards in order. Every mutation
// acquires ascending, which rules out deadlock. The total wait feeds
// the lock-wait histogram (with the trace ID as the bucket's exemplar)
// and the trace's "lock" span; each shard's counter gets its own
// queueing share.
func (s *Store) lockShards(idxs []uint32, tr *obs.Trace) {
	start := time.Now()
	last := start
	for _, i := range idxs {
		sh := s.shards[i]
		sh.mu.Lock()
		now := time.Now()
		sh.lockWaitNanos.Add(int64(now.Sub(last)))
		last = now
	}
	total := last.Sub(start)
	s.lockWait.ObserveExemplar(int64(total), tr.ID())
	tr.Observe("lock", total)
}

func (s *Store) unlockShards(idxs []uint32) {
	for i := len(idxs) - 1; i >= 0; i-- {
		s.shards[idxs[i]].mu.Unlock()
	}
}

// noteApplied raises the applied counter to seq. Stagings on different
// shards race here, so the maximum is taken with a CAS loop.
func (s *Store) noteApplied(seq uint64) {
	for {
		cur := s.lastApplied.Load()
		if seq <= cur || s.lastApplied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// commit waits for a staged record's durability outside the shard
// locks and drives the snapshot cadence with the n ops it carried. A
// context expiry during the wait surfaces as the context's own error,
// not ErrJournal — the journal is healthy, the caller just stopped
// waiting.
func (s *Store) commit(ctx context.Context, t wal.Ticket, n int) error {
	tr := obs.FromContext(ctx)
	span := tr.StartSpan("commit")
	start := time.Now()
	err := t.CommitCtx(ctx)
	s.wal.ObserveCommitWait(time.Since(start), tr.ID())
	span.End()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return fmt.Errorf("%w: commit: %v", ErrJournal, err)
	}
	s.maybeSnapshot(n)
	return nil
}
