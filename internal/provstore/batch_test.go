package provstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/wal"
)

// batchDocs builds n distinct valid documents keyed by "prefix-i".
func batchDocs(t testing.TB, prefix string, n int) map[string]*prov.Document {
	t.Helper()
	docs := make(map[string]*prov.Document, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%02d", prefix, i)
		docs[id] = testDoc(t, id)
	}
	return docs
}

// invalidDoc has a relation whose object was never declared, which
// Validate rejects.
func invalidDoc() *prov.Document {
	d := prov.NewDocument()
	d.AddActivity(prov.NewQName("ex", "run"), nil)
	d.Used(prov.NewQName("ex", "run"), prov.NewQName("ex", "ghost"), time.Time{})
	return d
}

// storeFingerprint captures everything a failed batch must leave
// untouched: the document list, graph counts, and per-document stats.
func storeFingerprint(s *Store) interface{} {
	type fp struct {
		IDs   []string
		Docs  int
		Nodes int
		Rels  int
	}
	st := s.Stats()
	return fp{IDs: s.List(), Docs: st.Documents, Nodes: st.Nodes, Rels: st.Rels}
}

func TestPutBatchBasicInMemory(t *testing.T) {
	s := NewSharded(4)
	docs := batchDocs(t, "b", 9)
	if err := s.PutBatch(docs); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 9 {
		t.Fatalf("Count = %d, want 9", s.Count())
	}
	for id := range docs {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("doc %q missing after batch", id)
		}
		// The graph projection must be queryable too.
		got, err := s.Lineage(id, prov.NewQName("ex", "model-"+id), Ancestors, 0)
		if err != nil || len(got) != 2 {
			t.Fatalf("lineage %q after batch: %v %v", id, got, err)
		}
	}
	// Replacing documents through a batch keeps exactly one projection.
	before := s.Stats()
	if err := s.PutBatch(docs); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after != before {
		t.Fatalf("re-putting the same batch changed stats: %+v -> %+v", before, after)
	}
	if err := s.PutBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestPutBatchSingleFsync is the group-commit acceptance point: one
// batch of N documents is one journal record, one commit, one fsync.
func TestPutBatchSingleFsync(t *testing.T) {
	s := openTemp(t, t.TempDir(), Durability{Fsync: true, SnapshotEvery: -1})
	base := s.Stats().Durability.Stats
	if err := s.PutBatch(batchDocs(t, "b", 50)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Durability.Stats
	if got := st.Appends - base.Appends; got != 1 {
		t.Errorf("batch staged %d records, want 1", got)
	}
	if got := st.Commits - base.Commits; got != 1 {
		t.Errorf("batch took %d commits, want 1", got)
	}
	if got := st.Syncs - base.Syncs; got != 1 {
		t.Errorf("batch cost %d fsyncs, want exactly 1", got)
	}
}

func TestPutBatchRejectsInvalidDocAtomically(t *testing.T) {
	s := openTemp(t, t.TempDir(), Durability{Fsync: true})
	if err := s.Put("keep", testDoc(t, "keep")); err != nil {
		t.Fatal(err)
	}
	before := storeFingerprint(s)
	docs := batchDocs(t, "bad", 6)
	docs["bad-03"] = invalidDoc() // poison one member
	if err := s.PutBatch(docs); err == nil {
		t.Fatal("batch with an invalid member was accepted")
	}
	if after := storeFingerprint(s); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed batch changed store state:\n before %+v\n after  %+v", before, after)
	}
	docs = batchDocs(t, "bad", 2)
	docs[""] = testDoc(t, "noid")
	if err := s.PutBatch(docs); err == nil {
		t.Fatal("batch with an empty id was accepted")
	}
	if after := storeFingerprint(s); !reflect.DeepEqual(before, after) {
		t.Fatalf("empty-id batch changed store state")
	}
}

// TestPutBatchStageFailureRollsBack is the fault-injection satellite: a
// journal staging failure (here the fail-stop latch, armed for real
// through the wal.FS seam by failing a segment write) must leave the
// mutation invisible to readers, to later snapshots, and to replay after
// reopen — including when it replaces or deletes a document that already
// existed. One row per caller of the mutation pipeline that stages: a
// local batch, a single put, a single delete, and a replicated record.
// TestLibraryPutRefusesInvalid pins the library put's refusal: Put and
// PutBatch of a document prov.EncodeDocument finds invalid return the
// store's error around Validate's, which wraps prov.ErrInvalidDocument,
// and store and journal are left as they were, also when one document
// of a batch is the invalid one. A document with warnings only is
// stored.
func TestLibraryPutRefusesInvalid(t *testing.T) {
	s := openTemp(t, t.TempDir(), Durability{Fsync: true, SnapshotEvery: -1})
	if err := s.Put("keep", testDoc(t, "keep")); err != nil {
		t.Fatal(err)
	}
	bad := invalidDoc()
	bad.AddEntity("zz:warned", nil)
	const want = `provstore: refusing invalid document "bad": prov: invalid document: 2 issue(s), first: entity uses unregistered namespace prefix "zz"`
	batch := batchDocs(t, "b", 3) // sorted before "bad": encoded first
	batch["bad"] = bad
	before, appends := storeFingerprint(s), s.Stats().Durability.Appends
	for name, put := range map[string]func() error{
		"Put":      func() error { return s.Put("bad", bad) },
		"PutBatch": func() error { return s.PutBatch(batch) },
	} {
		err := put()
		if err == nil || err.Error() != want || !errors.Is(err, prov.ErrInvalidDocument) {
			t.Errorf("%s: %v\nwant %q, wrapping prov.ErrInvalidDocument", name, err, want)
		}
		if after := storeFingerprint(s); !reflect.DeepEqual(before, after) {
			t.Errorf("%s changed the store:\n before %+v\n after  %+v", name, before, after)
		}
		if got := s.Stats().Durability.Appends; got != appends {
			t.Errorf("%s journaled %d record(s)", name, got-appends)
		}
	}
	warned := prov.NewDocument()
	warned.AddEntity("zz:warned", nil)
	if err := s.Put("warned", warned); err != nil {
		t.Fatalf("Put of a document with a warning: %v", err)
	}
	if err := s.PutBatch(map[string]*prov.Document{"warned-too": warned}); err != nil {
		t.Fatalf("PutBatch of a document with a warning: %v", err)
	}
	for _, id := range []string{"warned", "warned-too"} {
		if got, ok := s.Get(id); !ok || !got.HasNode("zz:warned") {
			t.Errorf("%s is not stored", id)
		}
	}
}

func TestPutBatchStageFailureRollsBack(t *testing.T) {
	injected := errors.New("injected: device error")
	replacement := func() *prov.Document { return testDoc(t, "new-version") }
	for _, tc := range []struct {
		name     string
		follower bool
		mutate   func(s *Store) error
	}{
		{name: "batch", mutate: func(s *Store) error {
			docs := batchDocs(t, "lost", 5)
			docs["pre-00"] = replacement() // replacement that must unwind
			return s.PutBatch(docs)
		}},
		{name: "put", mutate: func(s *Store) error { return s.Put("pre-00", replacement()) }},
		{name: "delete", mutate: func(s *Store) error { return s.Delete("pre-00") }},
		{name: "replicated", follower: true, mutate: func(s *Store) error {
			_, _, err := s.ApplyReplicated(wal.Record{Seq: 3, Payload: encodeRecord([]Op{
				{ID: "ghost"}, // delete of a missing id: tolerated, and unwound as a no-op
				putOp("lost-00", testDoc(t, "lost-00")),
				putOp("pre-00", replacement()),
			}, 0, "")})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := wal.NewFaultFS(nil)
			s := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1, FS: ffs, Follower: tc.follower})
			// Seed pre-00, then latch the journal the way a dying disk
			// would: the next segment write fails, nothing lands on disk,
			// and every later Stage is refused with the latched error.
			if tc.follower {
				// A follower's log only accepts the replication cursor, so
				// the write that trips the latch is a replicated record too
				// (seq 2: applied in memory, never durable).
				tk, _, err := s.ApplyReplicated(putRecord(t, 1, "pre-00", testDoc(t, "old-version")))
				if err != nil {
					t.Fatal(err)
				}
				if err := tk.Commit(); err != nil {
					t.Fatal(err)
				}
				ffs.FailWrites(0, injected)
				tk, _, err = s.ApplyReplicated(putRecord(t, 2, "never-acked", testDoc(t, "never-acked")))
				if err != nil {
					t.Fatal(err)
				}
				if err := tk.Commit(); err == nil {
					t.Fatal("write fault did not surface")
				}
			} else {
				if err := s.Put("pre-00", testDoc(t, "old-version")); err != nil {
					t.Fatal(err)
				}
				ffs.FailWrites(0, injected)
				if _, err := s.Log().Append([]byte(`{"op":"delete","id":"never-acked"}`)); err == nil {
					t.Fatal("write fault did not surface")
				}
			}
			ffs.Clear()
			before := storeFingerprint(s)
			seqBefore, versionBefore, entriesBefore := s.AppliedSeq(), s.Version(), entrySeqs(s)

			if err := tc.mutate(s); !errors.Is(err, ErrJournal) {
				t.Fatalf("mutation error = %v, want ErrJournal", err)
			}

			if after := storeFingerprint(s); !reflect.DeepEqual(before, after) {
				t.Fatalf("failed mutation changed store state:\n before %+v\n after  %+v", before, after)
			}
			if s.AppliedSeq() != seqBefore || s.Version() != versionBefore {
				t.Fatalf("failed mutation moved the store version: applied %d->%d, version %d->%d",
					seqBefore, s.AppliedSeq(), versionBefore, s.Version())
			}
			// The displaced entries come back as they were, seq included.
			if after := entrySeqs(s); !reflect.DeepEqual(entriesBefore, after) {
				t.Fatalf("failed mutation changed entry seqs: %v -> %v", entriesBefore, after)
			}
			// The rolled-back replacement must still serve the old projection.
			got, err := s.Lineage("pre-00", prov.NewQName("ex", "model-old-version"), Ancestors, 0)
			if err != nil || len(got) != 2 {
				t.Fatalf("pre-existing doc projection damaged: %v %v", got, err)
			}
			if s.FailStop() == "" {
				t.Fatal("latched store does not report a fail-stop reason")
			}
			// Snapshots must refuse to run on a latched journal: a checkpoint
			// that succeeded here could compact away records recovery needs.
			if err := s.Checkpoint(); err == nil {
				t.Fatal("checkpoint on a latched journal succeeded")
			}
			_ = s.Close() // close-time flush also sees the latch; error expected

			s2 := openTemp(t, dir, Durability{})
			if got := s2.List(); !reflect.DeepEqual(got, []string{"pre-00"}) {
				t.Fatalf("reopen after failed mutation: %v, want only pre-00", got)
			}
			if d, _ := s2.Get("pre-00"); !d.HasNode(prov.NewQName("ex", "model-old-version")) {
				t.Fatal("pre-existing document not recovered to its pre-mutation version")
			}
		})
	}
}

// TestPutBatchOnClosedStore exercises the real (non-injected) staging
// failure path: the WAL refuses the batch, and the in-memory apply is
// rolled back rather than left readable-but-unjournaled.
func TestPutBatchOnClosedStore(t *testing.T) {
	s := openTemp(t, t.TempDir(), Durability{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	err := s.PutBatch(batchDocs(t, "late", 3))
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("PutBatch on closed store = %v, want ErrJournal", err)
	}
	if s.Count() != 0 {
		t.Fatalf("closed-store batch left %d docs visible", s.Count())
	}
}

// TestDeleteBatchAtomic: an Apply of delete ops removes every listed
// document or, when one id is missing or listed twice, none of them.
func TestDeleteBatchAtomic(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1})
	if err := s.PutBatch(batchDocs(t, "d", 6)); err != nil {
		t.Fatal(err)
	}
	deleteAll := func(ids ...string) error {
		ops := make([]Op, len(ids))
		for i, id := range ids {
			ops[i] = Op{ID: id}
		}
		return s.Apply(context.Background(), ops)
	}
	before := storeFingerprint(s)
	// Any missing id fails the whole batch.
	if err := deleteAll("d-00", "d-01", "ghost"); err == nil {
		t.Fatal("delete batch with missing id succeeded")
	}
	if after := storeFingerprint(s); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed delete batch changed store state")
	}
	if err := deleteAll("d-00", "d-00"); err == nil {
		t.Fatal("delete batch with duplicate id succeeded")
	}
	if after := storeFingerprint(s); !reflect.DeepEqual(before, after) {
		t.Fatalf("duplicate-id delete batch changed store state")
	}
	if err := deleteAll("d-00", "d-03", "d-05"); err != nil {
		t.Fatal(err)
	}
	if got := s.List(); !reflect.DeepEqual(got, []string{"d-01", "d-02", "d-04"}) {
		t.Fatalf("after delete batch: %v", got)
	}
	// The deletes survive recovery.
	s.Close()
	s2 := openTemp(t, dir, Durability{})
	if got := s2.List(); !reflect.DeepEqual(got, []string{"d-01", "d-02", "d-04"}) {
		t.Fatalf("after reopen: %v", got)
	}
}

// TestBatchCrashRecoveryAllOrNothing is the crash satellite: a kill-9
// style reopen mid-batch-commit recovers either the whole batch or none
// of it, across 1/4/16 shard counts (and any writer/reader shard-count
// pairing). The journal is cut at a sweep of byte offsets — every cut
// inside the batch record must erase the batch entirely.
func TestBatchCrashRecoveryAllOrNothing(t *testing.T) {
	const batches, perBatch = 3, 5
	for _, writeShards := range []int{1, 4, 16} {
		dir := t.TempDir()
		s := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1, Shards: writeShards})
		for bn := 0; bn < batches; bn++ {
			if err := s.PutBatch(batchDocs(t, fmt.Sprintf("b%d", bn), perBatch)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg := newestSegment(t, dir)
		full, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		cuts := []int{0, len(full)}
		for c := 1; c < len(full); c += 83 {
			cuts = append(cuts, c)
		}
		for _, readShards := range []int{1, 4, 16} {
			for _, cut := range cuts {
				cdir := t.TempDir()
				if err := os.WriteFile(filepath.Join(cdir, filepath.Base(seg)), full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				sc, err := Open(cdir, Durability{Shards: readShards})
				if err != nil {
					t.Fatalf("write=%d read=%d cut=%d: %v", writeShards, readShards, cut, err)
				}
				for bn := 0; bn < batches; bn++ {
					present := 0
					for i := 0; i < perBatch; i++ {
						if _, ok := sc.Get(fmt.Sprintf("b%d-%02d", bn, i)); ok {
							present++
						}
					}
					if present != 0 && present != perBatch {
						t.Fatalf("write=%d read=%d cut=%d: batch %d partially recovered (%d/%d docs)",
							writeShards, readShards, cut, bn, present, perBatch)
					}
				}
				// Batches commit in order, so recovery must be a prefix
				// at batch granularity: batch k present implies k-1 is.
				prev := perBatch
				for bn := 0; bn < batches; bn++ {
					cur := 0
					if _, ok := sc.Get(fmt.Sprintf("b%d-00", bn)); ok {
						cur = perBatch
					}
					if cur > prev {
						t.Fatalf("write=%d read=%d cut=%d: batch %d recovered without batch %d",
							writeShards, readShards, cut, bn, bn-1)
					}
					prev = cur
				}
				sc.Close()
			}
		}
	}
}

// TestBatchTornRecordKill9 appends a partial batch record (what kill -9
// mid-batch-write leaves) and checks reopen drops the whole batch while
// keeping every previously acknowledged document.
func TestBatchTornRecordKill9(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1, Shards: 4})
	if err := s.PutBatch(batchDocs(t, "acked", 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Capture what a full batch record looks like, then graft a torn
	// prefix of it onto the acknowledged journal.
	donor := t.TempDir()
	sd := openTemp(t, donor, Durability{Fsync: true, SnapshotEvery: -1})
	if err := sd.PutBatch(batchDocs(t, "torn", 4)); err != nil {
		t.Fatal(err)
	}
	sd.Close()
	rec, err := os.ReadFile(newestSegment(t, donor))
	if err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Durability{Shards: 16})
	if err != nil {
		t.Fatalf("reopen after torn batch: %v", err)
	}
	defer s2.Close()
	if s2.Count() != 4 {
		t.Fatalf("recovered %d docs, want the 4 acknowledged ones", s2.Count())
	}
	for i := 0; i < 4; i++ {
		if _, ok := s2.Get(fmt.Sprintf("acked-%02d", i)); !ok {
			t.Fatalf("acknowledged doc %d lost", i)
		}
		if _, ok := s2.Get(fmt.Sprintf("torn-%02d", i)); ok {
			t.Fatal("torn batch partially recovered")
		}
	}
}

// TestConcurrentBatchesAndSingles races PutBatch against Put/Get across
// overlapping shards (run under -race via make race).
func TestConcurrentBatchesAndSingles(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{SnapshotEvery: 16, Shards: 4})
	const workers, rounds, per = 4, 8, 6
	var wg sync.WaitGroup
	errc := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := s.PutBatch(batchDocs(t, fmt.Sprintf("w%d-r%d", w, r), per)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("single-w%d-r%d", w, r)
				if err := s.Put(id, testDoc(t, id)); err != nil {
					errc <- err
					return
				}
				s.Get(id)
				s.Count()
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	want := workers*rounds*per + workers*rounds
	if s.Count() != want {
		t.Fatalf("Count = %d, want %d", s.Count(), want)
	}
	s.Close()
	s2 := openTemp(t, dir, Durability{})
	if s2.Count() != want {
		t.Fatalf("recovered %d docs, want %d", s2.Count(), want)
	}
}
