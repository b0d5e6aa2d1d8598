package provstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/prov"
)

// watermarkDoc is a 2-node, 1-rel document used by the version and
// stats-consistency tests (counts stay trivially predictable).
func watermarkDoc(tag string) *prov.Document {
	d := prov.NewDocument()
	d.AddEntity("ex:e", prov.Attrs{"provml:name": prov.Str(tag)})
	d.AddActivity("ex:a", nil)
	d.WasGeneratedBy("ex:e", "ex:a", time.Time{})
	return d
}

// entrySeqs maps every stored id to the sequence its current entry was
// installed under.
func entrySeqs(s *Store) map[string]uint64 {
	out := map[string]uint64{}
	s.eachEntry(func(e *entry) { out[e.id] = e.seq })
	return out
}

func viewSeq(t *testing.T, s *Store, id string) uint64 {
	t.Helper()
	v, ok := s.View(id)
	if !ok {
		t.Fatalf("document %q is not stored", id)
	}
	return v.Seq()
}

// TestEntrySeqAdvancesPerDocument: a document's version moves when that
// document is written and at no other time — on one shard, where every
// write used to move every document's version — and the store-wide
// version moves with every mutation.
func TestEntrySeqAdvancesPerDocument(t *testing.T) {
	s := NewSharded(1)
	doc := watermarkDoc("d")

	if v, ok := s.View("a"); ok || v.Seq() != 0 || v.Document() != nil {
		t.Fatalf("fresh store: View(a) = seq %d, doc %v, ok %v; want the empty view", v.Seq(), v.Document(), ok)
	}
	if v := s.Version(); v != 0 {
		t.Fatalf("fresh store version = %d, want 0", v)
	}
	if err := s.Put("a", doc); err != nil {
		t.Fatal(err)
	}
	va := viewSeq(t, s, "a")
	if va == 0 || va != s.Version() {
		t.Fatalf("after the first put: seq(a) = %d, store version = %d; want equal and non-zero", va, s.Version())
	}

	// Writes to other documents, same shard: put, replace, delete, batch.
	if err := s.Put("b", doc); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", watermarkDoc("d2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	batch := map[string]*prov.Document{}
	for i := 0; i < 16; i++ {
		batch[fmt.Sprintf("b-%d", i)] = doc
	}
	before := s.Version()
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := viewSeq(t, s, "a"); got != va {
		t.Fatalf("writes to other documents moved a's seq %d -> %d", va, got)
	}
	if s.Version() <= before {
		t.Fatalf("batch did not advance the store version: %d -> %d", before, s.Version())
	}
	for id := range batch {
		if got := viewSeq(t, s, id); got != s.Version() {
			t.Fatalf("batch member %s has seq %d, want the batch's one seq %d", id, got, s.Version())
		}
	}

	// Replacing a moves it; a view taken before still names the old version.
	old, _ := s.View("a")
	if err := s.Put("a", watermarkDoc("d2")); err != nil {
		t.Fatal(err)
	}
	vb := viewSeq(t, s, "a")
	if vb <= va || old.Seq() != va {
		t.Fatalf("replace: seq %d -> %d, held view now says %d", va, vb, old.Seq())
	}

	// Delete, then re-create: the new version is newer than every old one.
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.View("a"); ok {
		t.Fatal("deleted document still has a view")
	}
	if err := s.Put("a", doc); err != nil {
		t.Fatal(err)
	}
	if got := viewSeq(t, s, "a"); got <= vb {
		t.Fatalf("re-created document has seq %d, not above its old %d", got, vb)
	}
}

// TestVersionMonotoneUnderConcurrency: the store version never goes
// backwards while writers race, always reaches the final value, and no
// entry is ever numbered above it.
func TestVersionMonotoneUnderConcurrency(t *testing.T) {
	s := NewSharded(4)
	doc := watermarkDoc("d")
	const writers, writes = 4, 100

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() { // watcher: versions must be non-decreasing
		defer watcher.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := s.Version()
			if v < last {
				t.Errorf("version went backwards: %d after %d", v, last)
				return
			}
			last = v
			// Read after the version: whatever is visible now may be
			// newer than v, but a view's seq can never exceed the
			// version read after it.
			if view, ok := s.View("w0-0"); ok && view.Seq() > s.Version() {
				t.Errorf("entry seq %d above the store version", view.Seq())
				return
			}
		}
	}()
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			for i := 0; i < writes; i++ {
				if err := s.Put(fmt.Sprintf("w%d-%d", g, i), doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	watcher.Wait()

	if v := s.Version(); v != uint64(writers*writes) {
		t.Fatalf("final version %d, want %d (one tick per mutation)", v, writers*writes)
	}
	seen := map[uint64]string{}
	for id, seq := range entrySeqs(s) {
		if other, dup := seen[seq]; dup {
			t.Fatalf("%s and %s were installed by different mutations under one seq %d", id, other, seq)
		}
		seen[seq] = id
	}
}

// TestFollowerApplyAdvancesEntrySeq: a replicated apply stamps the
// replaced document with the primary's sequence number, so a follower's
// single-document versions move on catch-up exactly like on a local
// write, and name the same versions the primary's do.
func TestFollowerApplyAdvancesEntrySeq(t *testing.T) {
	f := openFollower(t, t.TempDir())
	defer f.Close()
	doc := watermarkDoc("d")

	if _, ok, err := f.ApplyReplicated(putRecord(t, 1, "x", doc)); err != nil || !ok {
		t.Fatalf("apply seq 1: ok=%v err=%v", ok, err)
	}
	if _, ok, err := f.ApplyReplicated(putRecord(t, 2, "y", doc)); err != nil || !ok {
		t.Fatalf("apply seq 2: ok=%v err=%v", ok, err)
	}
	if x, y := viewSeq(t, f, "x"), viewSeq(t, f, "y"); x != 1 || y != 2 {
		t.Fatalf("follower seqs x=%d y=%d, want 1 and 2", x, y)
	}
	if _, ok, err := f.ApplyReplicated(putRecord(t, 3, "x", doc)); err != nil || !ok {
		t.Fatalf("apply seq 3: ok=%v err=%v", ok, err)
	}
	// A duplicate (at-or-below the applied counter) apply is skipped and
	// must not disturb any version.
	if _, ok, err := f.ApplyReplicated(putRecord(t, 3, "x", doc)); err != nil || ok {
		t.Fatalf("duplicate apply: ok=%v err=%v", ok, err)
	}
	if x, y, v := viewSeq(t, f, "x"), viewSeq(t, f, "y"), f.Version(); x != 3 || y != 2 || v != 3 {
		t.Fatalf("after replacing x: x=%d y=%d store=%d, want 3, 2, 3", x, y, v)
	}
}

// TestRecoveryRestoresEntrySeqs: in a reopened store a document that is
// only in the snapshot carries the snapshot's sequence, one written in
// the journal tail its record's, and both are at least what they were
// before the crash — so no version handed out by the previous process
// can name different content in this one (responses also carry a
// different ETag epoch, but the store-level invariant must hold on its
// own). A document deleted before the crash and re-created after it is
// numbered above everything the old process issued.
func TestRecoveryRestoresEntrySeqs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Durability{SnapshotEvery: -1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	doc := watermarkDoc("d")
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("doc-%d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapSeq := s.Version()
	// The tail: a rewrite, a new document, a delete.
	if err := s.Put("doc-3", watermarkDoc("d2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("doc-new", doc); err != nil {
		t.Fatal(err)
	}
	doc5 := viewSeq(t, s, "doc-5")
	if err := s.Delete("doc-5"); err != nil {
		t.Fatal(err)
	}
	before, perID := s.Version(), entrySeqs(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Durability{SnapshotEvery: -1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := r.Version(); v != before {
		t.Fatalf("recovered store version %d, want %d", v, before)
	}
	got := entrySeqs(r)
	if len(got) != len(perID) {
		t.Fatalf("recovered %d documents, want %d", len(got), len(perID))
	}
	for id, was := range perID {
		want := snapSeq // only in the snapshot
		if was > snapSeq {
			want = was // written in the tail: the record's own seq
		}
		if got[id] != want || got[id] < was {
			t.Errorf("recovered %s with seq %d, want %d (pre-crash %d)", id, got[id], want, was)
		}
	}
	if err := r.Put("doc-5", doc); err != nil {
		t.Fatal(err)
	}
	if v := viewSeq(t, r, "doc-5"); v <= before || v <= doc5 {
		t.Fatalf("re-created doc-5 has seq %d, not above the old process's %d", v, before)
	}
}

// TestStatsNotTorn: Documents, Nodes, and Rels come from one RLock per
// shard, so on a single-shard store racing writers can never produce a
// snapshot where the graph counts disagree with the document count
// (every test doc contributes exactly 2 nodes and 1 rel).
func TestStatsNotTorn(t *testing.T) {
	s := NewSharded(1)
	const writers, writes = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var torn []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Nodes != 2*st.Documents || st.Rels != st.Documents {
				torn = append(torn, fmt.Sprintf("docs=%d nodes=%d rels=%d", st.Documents, st.Nodes, st.Rels))
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			doc := watermarkDoc("d")
			for i := 0; i < writes; i++ {
				if err := s.Put(fmt.Sprintf("w%d-%d", g, i), doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	go func() {
		for s.Count() < writers*writes {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	wg.Wait()
	if len(torn) > 0 {
		t.Fatalf("torn stats snapshot: %s", torn[0])
	}
}
