package provstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/wal"
)

func replicaDoc(t *testing.T, tag string) *prov.Document {
	t.Helper()
	d := prov.NewDocument()
	d.AddEntity("ex:e", prov.Attrs{"provml:name": prov.Str(tag)})
	d.AddActivity("ex:a", nil)
	d.WasGeneratedBy("ex:e", "ex:a", time.Time{})
	return d
}

func openFollower(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Durability{Follower: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func putRecord(t *testing.T, seq uint64, id string, doc *prov.Document) wal.Record {
	t.Helper()
	return wal.Record{Seq: seq, Payload: encodeRecord([]Op{putOp(id, doc)}, 0, "")}
}

// TestApplyReplicatedGapLeavesJournalUntouched: a rejected record — a
// stream gap here — must not consume a local journal sequence, or
// retries would stage duplicate history the primary never had.
func TestApplyReplicatedGapLeavesJournalUntouched(t *testing.T) {
	s := openFollower(t, t.TempDir())
	defer s.Close()
	doc := replicaDoc(t, "d")

	if _, _, err := s.ApplyReplicated(putRecord(t, 2, "x", doc)); err == nil {
		t.Fatal("gap record accepted")
	}
	if next := s.Log().NextSeq(); next != 1 {
		t.Fatalf("failed apply consumed a journal seq: next = %d, want 1", next)
	}
	// Repeated failures (the reconnect-retry shape) still stage nothing.
	for i := 0; i < 3; i++ {
		if _, _, err := s.ApplyReplicated(putRecord(t, 5, "x", doc)); err == nil {
			t.Fatal("gap record accepted")
		}
	}
	if next := s.Log().NextSeq(); next != 1 {
		t.Fatalf("retries staged phantom records: next = %d, want 1", next)
	}

	// The correct record then lands at exactly seq 1.
	tk, ok, err := s.ApplyReplicated(putRecord(t, 1, "x", doc))
	if err != nil || !ok {
		t.Fatalf("valid record rejected: %v", err)
	}
	if err := tk.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.AppliedSeq() != 1 || s.Count() != 1 {
		t.Fatalf("applied=%d count=%d, want 1/1", s.AppliedSeq(), s.Count())
	}
}

// TestApplyReplicatedSkipsOverlap: records at or below the watermark
// (reconnect overlap) are skipped without journal traffic.
func TestApplyReplicatedSkipsOverlap(t *testing.T) {
	s := openFollower(t, t.TempDir())
	defer s.Close()
	doc := replicaDoc(t, "d")
	tk, _, err := s.ApplyReplicated(putRecord(t, 1, "x", doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Commit(); err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.ApplyReplicated(putRecord(t, 1, "x", doc))
	if err != nil || ok {
		t.Fatalf("overlap record: ok=%v err=%v, want skipped", ok, err)
	}
	if next := s.Log().NextSeq(); next != 2 {
		t.Fatalf("overlap staged a record: next = %d, want 2", next)
	}
}

// TestApplyReplicatedOnPrimaryRefused guards the mode check.
func TestApplyReplicatedOnPrimaryRefused(t *testing.T) {
	s, err := Open(t.TempDir(), Durability{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.ApplyReplicated(putRecord(t, 1, "x", replicaDoc(t, "d"))); err == nil {
		t.Fatal("ApplyReplicated accepted on a non-follower store")
	}
	if err := s.Put("x", replicaDoc(t, "d")); err != nil {
		t.Fatalf("primary Put should still work: %v", err)
	}
	if errors.Is(s.Put("", nil), ErrReadOnly) {
		t.Fatal("primary reported read-only")
	}
}

// TestApplyReplicatedRejectsDanglingRelation: a replicated record is
// not validated like a local write, but a document whose relation names
// an element it does not declare cannot be indexed; the whole record is
// refused and leaves nothing behind.
func TestApplyReplicatedRejectsDanglingRelation(t *testing.T) {
	s := openFollower(t, t.TempDir())
	defer s.Close()
	bad := replicaDoc(t, "bad")
	bad.Used("ex:a", "ex:undeclared", time.Time{})
	rec := wal.Record{Seq: 1, Payload: encodeRecord([]Op{
		putOp("good", replicaDoc(t, "good")),
		putOp("torn", bad),
	}, 0, "")}
	if _, _, err := s.ApplyReplicated(rec); err == nil {
		t.Fatal("record with a dangling relation accepted")
	}
	if s.Count() != 0 || s.AppliedSeq() != 0 || s.Log().NextSeq() != 1 {
		t.Fatalf("rejected record left count=%d applied=%d next=%d", s.Count(), s.AppliedSeq(), s.Log().NextSeq())
	}
}
