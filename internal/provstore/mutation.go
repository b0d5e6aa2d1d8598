package provstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// The write path. Every state change — a local put, delete or batch, a
// record replicated from a primary, a record or snapshot replayed at
// recovery — is a mutation run through Store.apply, the only code that
// locks shards, stages to the journal, rolls back, stamps each installed
// entry with its sequence and advances the store's applied counter
// (README, "Write path"). Every entry comes from newEntry, over the
// document's blob: apply's for a local write, the record or snapshot
// decoder's for the others.

// Op is one step of a mutation: store the document Blob encodes under
// ID, or, when Blob is nil, delete ID.
type Op struct {
	ID string
	// Blob is the document's binary encoding: prov.AppendBinary's
	// layout, which prov.TranscodeJSON writes straight from PROV-JSON.
	// The store keeps it as the entry's blob, so it should be exactly
	// sized (cap == len), and the caller must not change it once Apply
	// is called.
	Blob []byte
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
	// record is staged to the journal under the shard locks. A follower
	// sets it to the primary's payload verbatim (it lands on the
	// primary's sequence because the local log's next sequence is the
	// replication cursor); on a primary, apply encodes it from ops and
	// entries. With no journal (recovery, in-memory stores) there is none:
	// seq is then the sequence the mutation already holds in the journal
	// (recovery), and zero takes the next tick of the store's applied
	// counter (in-memory stores, which have no journal to number them).
	record []byte
	seq    uint64
	// entries, when non-nil, runs parallel to ops: entries[i] is the
	// entry ops[i] installs, nil for a delete. A decoded record or
	// snapshot carries the entries it built from its blobs, and its ops
	// no blob; with none, apply builds them from the ops' blobs.
	entries []*entry
}

// opLabel names a decoded mutation for the apply observer.
func (m *mutation) opLabel() string {
	switch {
	case len(m.ops) != 1:
		return "batch"
	case m.entries[0] == nil:
		return "delete"
	default:
		return "put"
	}
}

// Apply runs ops as one atomic unit: either all of them become visible
// and durable together, or none do and the store is left exactly as it
// was. A delete of a missing id, an empty or repeated id, or a blob
// that does not index (prov.IndexBinary) or names an element it does
// not declare fails the whole call. Apply does not run
// prov.Document.Validate: a writer checks its documents first
// (prov.TranscodeJSON does as it encodes; Put and PutBatch call
// Validate). On journaled stores the mutation is
// one log record — one Stage, one group-commit ticket, one fsync — and,
// because a record is the WAL's atomicity unit, crash recovery replays
// all of it or none of it. Apply returns once that record is durable.
// ops is sorted by ID in place (the journal order is deterministic
// whatever order the caller collected them in); an empty list is a
// no-op.
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
	// Check the ids before touching any shard: a bad op must reject the
	// mutation without lock traffic or partial application.
	for i := range ops {
		if ops[i].ID == "" {
			return fmt.Errorf("provstore: empty document id")
		}
		if i > 0 && ops[i-1].ID == ops[i].ID {
			return fmt.Errorf("provstore: duplicate id %q in one mutation", ops[i].ID)
		}
	}
	m := mutation{ops: ops, trace: obs.FromContext(ctx).ID()}
	t, err := s.apply(ctx, &m)
	if m.record != nil {
		putOpBuf(m.record) // wal.Stage copied it
	}
	if err != nil || s.wal == nil {
		return err
	}
	return s.commit(ctx, t, len(ops))
}

// apply is the mutation pipeline. It builds the entry of every document
// the mutation stores that a decoder did not, from the op's blob
// (newEntry), and, on a primary's journal, encodes the record from the
// entries' blobs; then it takes
// the owning shard locks in ascending order, checks that every delete
// names a stored id, stages the record and swaps the entries in. A
// mutation that fails changes nothing: every check and the staging come
// before the first swap, so no reader, later snapshot or replay sees
// part of it (an un-journaled change left readable would be made
// durable by the next checkpoint although its caller was told it
// failed). All the work proportional to a document happens before the
// locks; under them a put, replace or delete is a pointer swap. Staging
// under the locks makes log order match apply order per document. Every
// installed entry is stamped with the mutation's sequence before it is
// swapped in, and the store's applied counter advances before the locks
// drop, so no reader can observe the new state under an old version.
// The returned ticket is not yet committed.
func (s *Store) apply(ctx context.Context, m *mutation) (t wal.Ticket, err error) {
	if err = ctx.Err(); err != nil {
		return t, err
	}
	tr := obs.FromContext(ctx)
	// installed[i] is what ops[i] installs, nil for a delete. A one-op
	// mutation built here does not allocate the list.
	var oneEntry [1]*entry
	installed := m.entries
	if installed == nil {
		installed = oneEntry[:]
		if len(m.ops) > 1 {
			installed = make([]*entry, len(m.ops))
		}
		span := tr.StartSpan("project")
		for i := range m.ops {
			if op := &m.ops[i]; op.Blob != nil {
				if installed[i], err = newEntry(op.ID, op.Blob); err != nil {
					err = fmt.Errorf("provstore: put %q: %w", op.ID, err)
					break
				}
			}
		}
		span.End()
		if err != nil {
			return t, err
		}
	}
	if m.record == nil && s.wal != nil {
		m.record = appendRecord(getOpBuf(), m.ops, installed, s.mask, m.trace)
	}

	var oneShard [1]uint32
	idxs := s.ownerShards(m.ops, oneShard[:0])
	s.lockShards(idxs, tr)
	defer s.unlockShards(idxs)
	if err = ctx.Err(); err != nil {
		return t, err // expired while queued on the locks
	}
	if !m.lenient {
		for i := range m.ops {
			if id := m.ops[i].ID; installed[i] == nil && s.shardFor(id).docs[id] == nil {
				return t, fmt.Errorf("provstore: document %q does not exist", id)
			}
		}
	}

	span := tr.StartSpan("stage")
	if m.record != nil {
		t, err = s.wal.Stage(m.record)
	}
	span.End()
	if err != nil {
		return wal.Ticket{}, fmt.Errorf("%w: %v", ErrJournal, err)
	}

	seq := m.seq
	if m.record != nil {
		seq = t.Seq()
	}
	if seq == 0 {
		seq = s.lastApplied.Add(1)
	}
	for i := range m.ops {
		if e := installed[i]; e != nil {
			e.seq = seq
		}
		id := m.ops[i].ID
		s.shardFor(id).swap(id, installed[i])
	}
	s.noteApplied(seq)
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
