package provstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/wal"
)

// A mutation whose deadline has already expired must be refused before
// it applies, stages, or consumes a group-commit ticket: the journal's
// append counter must not move and the store must stay readable and
// unchanged.
func TestApplyExpiredConsumesNoTicket(t *testing.T) {
	s := openTemp(t, t.TempDir(), Durability{Fsync: true, SnapshotEvery: -1})
	if err := s.Put("keep", testDoc(t, "keep")); err != nil {
		t.Fatal(err)
	}
	appendsBefore := s.Log().Stats().Appends

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ops := range map[string][]Op{
		"put":    {putOp("late", testDoc(t, "late"))},
		"delete": {{ID: "keep"}},
		"batch":  {putOp("b1", testDoc(t, "b1")), putOp("b2", testDoc(t, "b2")), {ID: "keep"}},
	} {
		if err := s.Apply(ctx, ops); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s on dead context: got %v, want context.Canceled", name, err)
		}
	}

	if after := s.Log().Stats().Appends; after != appendsBefore {
		t.Fatalf("dead-context mutations consumed %d tickets", after-appendsBefore)
	}
	if got := s.List(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("dead-context mutations changed the store: %v", got)
	}
	// A live context is business as usual.
	if err := s.Apply(context.Background(), []Op{putOp("ok", testDoc(t, "ok"))}); err != nil {
		t.Fatal(err)
	}
}

// A deadline that expires mid-fsync stops the caller's wait without
// blocking for the disk; the store itself stays healthy.
func TestApplyDeadlineDuringCommit(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	s := openTemp(t, t.TempDir(), Durability{Fsync: true, SnapshotEvery: -1, FS: ffs})
	ffs.SlowSyncs(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Apply(ctx, []Op{putOp("slow", testDoc(t, "slow"))})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Apply under slow fsync: got %v, want deadline exceeded", err)
	}
	if errors.Is(err, ErrJournal) {
		t.Fatal("deadline expiry misreported as a journal failure")
	}
	if waited := time.Since(start); waited > 150*time.Millisecond {
		t.Fatalf("Apply waited %v past its deadline", waited)
	}
	ffs.Clear()
	// The journal is not latched: later writes succeed.
	if err := s.Put("after", testDoc(t, "after")); err != nil {
		t.Fatalf("put after deadline expiry: %v", err)
	}
}
