package provstore

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/prov"
	"repro/internal/wal"
)

// checkpointCost runs one checkpoint and returns how many documents it
// put into the snapshot and how many payload bytes it wrote, both read
// off the store's own counters.
func checkpointCost(t *testing.T, s *Store) (docs, payload uint64) {
	t.Helper()
	before := s.Stats().Durability
	bytesBefore := s.checkpointBytes.Load()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Durability
	if after.LastCheckpointMs <= 0 {
		t.Errorf("last_checkpoint_ms = %v after a checkpoint", after.LastCheckpointMs)
	}
	return after.CheckpointDocs - before.CheckpointDocs, s.checkpointBytes.Load() - bytesBefore
}

// snapshotOnDisk returns the payload of dir's newest snapshot. The
// store using dir must be closed.
func snapshotOnDisk(t *testing.T, dir string) []byte {
	t.Helper()
	return recovered(t, dir).SnapshotPayload
}

// recovered is what wal.Open finds in dir. The store using dir must be
// closed.
func recovered(t *testing.T, dir string) *wal.RecoveredState {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// diskBlobs is, per stored id, the blob dir holds for its current
// version: the newest snapshot's, overridden by the journal tail's
// records in order. The store using dir must be closed.
func diskBlobs(t *testing.T, dir string) (snap, tail map[string][]byte) {
	t.Helper()
	rec := recovered(t, dir)
	m, err := decodeSnapshot(rec.SnapshotPayload)
	if err != nil {
		t.Fatal(err)
	}
	snap = map[string][]byte{}
	for i, op := range m.ops {
		snap[op.ID] = opBlob(&m, i)
	}
	tail = map[string][]byte{}
	for _, r := range rec.Records {
		m, err := decodeRecordPayload(r.Payload, r.Seq)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range m.ops {
			tail[op.ID] = opBlob(&m, i) // nil for a delete
		}
	}
	return snap, tail
}

// entryBlobs is every entry's blob, each checked to be exactly sized
// and to encode the document last put under its id (want: id -> JSON).
func entryBlobs(t *testing.T, s *Store, want map[string]string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	s.eachEntry(func(e *entry) {
		if len(e.blob) == 0 || cap(e.blob) != len(e.blob) || e.blob[0] != prov.BinaryDocTag {
			t.Errorf("%s: blob len %d cap %d, want a binary blob with cap == len", e.id, len(e.blob), cap(e.blob))
		}
		if got := string(mustJSON(t, e.document())); got != want[e.id] {
			t.Errorf("%s: blob encodes\n%s\nwant\n%s", e.id, got, want[e.id])
		}
		out[e.id] = e.blob
	})
	if len(out) != len(want) {
		t.Errorf("%d entries, want %d", len(out), len(want))
	}
	return out
}

// sameBlobs fails unless got holds, byte for byte, want's blob for
// every id of want.
func sameBlobs(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	for id, w := range want {
		if g, ok := got[id]; !ok || !bytes.Equal(g, w) {
			t.Errorf("%s: %s holds %d bytes (present %v), not the entry's %d-byte blob", label, id, len(g), ok, len(w))
		}
	}
}

// blobStore is a store in a temporary directory and the JSON of the
// document last put under each id, for the blob tests below.
type blobStore struct {
	t      *testing.T
	dir    string
	opts   Durability
	s      *Store
	stored map[string]string // id -> JSON of the document put last
}

func newBlobStore(t *testing.T) *blobStore {
	dir := t.TempDir()
	opts := Durability{SnapshotEvery: -1, Shards: 4}
	return &blobStore{t: t, dir: dir, opts: opts, s: openTemp(t, dir, opts), stored: map[string]string{}}
}

func blobID(i int) string { return fmt.Sprintf("doc-%02d", i) }

// version is a new document for blobID(i), recorded as the one put last.
func (b *blobStore) version(i int, tag string) *prov.Document {
	doc := compatDoc(b.t, fmt.Sprintf("%s-%d", tag, i), 40)
	b.stored[blobID(i)] = string(mustJSON(b.t, doc))
	return doc
}

// restart closes the store, reads the blobs its directory holds and
// reopens it.
func (b *blobStore) restart() (snap, tail map[string][]byte) {
	b.t.Helper()
	if err := b.s.Close(); err != nil {
		b.t.Fatal(err)
	}
	snap, tail = diskBlobs(b.t, b.dir)
	b.s = openTemp(b.t, b.dir, b.opts)
	return snap, tail
}

// journaled checks that every entry's blob is the one the directory
// holds for its id, and still the entry's after a restart replays the
// journal. It returns the blobs.
func (b *blobStore) journaled(label string) map[string][]byte {
	b.t.Helper()
	kept := entryBlobs(b.t, b.s, b.stored)
	onDisk, tail := b.restart()
	for id, blob := range tail {
		onDisk[id] = blob
	}
	sameBlobs(b.t, label+": snapshot and journal records", onDisk, kept)
	sameBlobs(b.t, label+": entries replayed from the journal", entryBlobs(b.t, b.s, b.stored), kept)
	return kept
}

// TestPutBlobSameInRecordAndEntry: a document is encoded once, when it
// is written. The blob its entry keeps is byte for byte the one its
// journal record carries — for a single put, a batch and a mixed op —
// and a restart that replays the records hands it back to the entry.
// A nil document is refused.
func TestPutBlobSameInRecordAndEntry(t *testing.T) {
	const n = 64
	b := newBlobStore(t)
	for i := 0; i < 4; i++ {
		if err := b.s.Put(blobID(i), b.version(i, "single")); err != nil {
			t.Fatal(err)
		}
	}
	b.journaled("single puts")

	batch := map[string]*prov.Document{}
	for i := 2; i < n; i++ { // replaces 2 and 3
		batch[blobID(i)] = b.version(i, "batch")
	}
	if err := b.s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := b.s.Apply(context.Background(), []Op{{ID: blobID(0)}, putOp(blobID(n), b.version(n, "mixed"))}); err != nil {
		t.Fatal(err)
	}
	delete(b.stored, blobID(0))
	if err := b.s.PutBatch(map[string]*prov.Document{"bad": nil}); err == nil {
		t.Fatal("nil-Doc batch item accepted")
	}
	if err := b.s.Put("bad", nil); err == nil {
		t.Fatal("nil-Doc put accepted")
	}
	b.journaled("batches")
	lineage, err := b.s.Lineage(blobID(2), prov.NewQName("ex", "batch-2-e0"), Ancestors, 0)
	if err != nil || len(lineage) != 1 || lineage[0] != prov.NewQName("ex", "batch-2-a0") {
		t.Fatalf("lineage after replaying the journal: %v %v", lineage, err)
	}
}

// TestCheckpointStoresEntryBlobs: a checkpoint encodes nothing. The
// snapshot stores every entry's blob byte for byte, a restart from it
// hands each blob back to its entry, and a journal tail on top of it
// ends up in the next snapshot the same way. A checkpoint of an
// unchanged store allocates no more than its payload.
func TestCheckpointStoresEntryBlobs(t *testing.T) {
	const n = 64
	b := newBlobStore(t)
	batch := map[string]*prov.Document{}
	for i := 0; i < n; i++ {
		batch[blobID(i)] = b.version(i, "batch")
	}
	if err := b.s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := b.s.Delete(blobID(0)); err != nil {
		t.Fatal(err)
	}
	delete(b.stored, blobID(0))
	kept := b.journaled("writes")

	docs, _ := checkpointCost(t, b.s)
	if docs != uint64(len(b.stored)) {
		t.Fatalf("checkpoint stored %d documents, want %d", docs, len(b.stored))
	}
	// Nothing written since: nothing allocated beyond the payload
	// itself. Growing the payload from nil cost about 3x.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, payload := checkpointCost(t, b.s)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && float64(alloc) > 1.1*float64(payload) {
		t.Errorf("checkpoint of an unchanged store allocated %d bytes for a %d-byte payload, want <= 1.1x", alloc, payload)
	}
	snap, tail := b.restart()
	if len(tail) != 0 || len(snap) != len(b.stored) {
		t.Fatalf("after the checkpoint the directory holds %d snapshot documents and a %d-document tail, want %d and none", len(snap), len(tail), len(b.stored))
	}
	sameBlobs(t, "snapshot", snap, kept)
	sameBlobs(t, "entries recovered from the snapshot", entryBlobs(t, b.s, b.stored), kept)

	// A journal tail on top of the snapshot.
	if err := b.s.Put(blobID(1), b.version(1, "tail")); err != nil {
		t.Fatal(err)
	}
	kept = b.journaled("journal tail")
	if err := b.s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, _ = b.restart()
	sameBlobs(t, "snapshot after the tail", snap, kept)
	sameBlobs(t, "entries recovered from that snapshot", entryBlobs(t, b.s, b.stored), kept)
	lineage, err := b.s.Lineage(blobID(1), prov.NewQName("ex", "tail-1-e0"), Ancestors, 0)
	if err != nil || len(lineage) != 1 || lineage[0] != prov.NewQName("ex", "tail-1-a0") {
		t.Fatalf("lineage after recovery: %v %v", lineage, err)
	}
}

// TestCheckpointConcurrentWithWritersAndReaders (run under -race):
// writers replace their documents while readers traverse views, an
// explicit Checkpoint races the cadence-driven one, and the directory
// reopens to exactly the last acknowledged version of every document.
func TestCheckpointConcurrentWithWritersAndReaders(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{SnapshotEvery: 7, Shards: 4})
	const writers, docsPer, rounds = 4, 6, 12
	id := func(w, i int) string { return fmt.Sprintf("w%d-%d", w, i) }

	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	acked := make([]map[string]string, writers) // id -> tag of the last acknowledged version
	for w := 0; w < writers; w++ {
		acked[w] = make(map[string]string)
		writing.Add(1)
		go func() {
			defer writing.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < docsPer; i++ {
					tag := fmt.Sprintf("%s-r%d", id(w, i), r)
					if err := s.Put(id(w, i), testDoc(t, tag)); err != nil {
						t.Error(err)
						return
					}
					acked[w][id(w, i)] = tag
					// Nobody else writes this id: the writer reads its own
					// write back, whatever checkpoint is running.
					v, ok := s.View(id(w, i))
					if !ok || string(mustJSON(t, v.Document())) != string(mustJSON(t, testDoc(t, tag))) {
						t.Errorf("%s: read after the acknowledged put of %s did not return it", id(w, i), tag)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			last := make(map[string]uint64)
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				key := id(n%writers, n%docsPer)
				v, ok := s.View(key)
				if !ok {
					continue
				}
				if v.Seq() < last[key] {
					t.Errorf("%s went from seq %d back to %d", key, last[key], v.Seq())
					return
				}
				last[key] = v.Seq()
				model := v.Document().EntityIDs()[0]
				if _, err := v.Lineage(model, Ancestors, 0); err != nil {
					t.Errorf("lineage on a view of %s: %v", key, err)
					return
				}
			}
		}()
	}
	reading.Add(1)
	go func() {
		defer reading.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writing.Wait()
	close(done)
	reading.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Durability; st.SnapshotErrors != 0 {
		t.Fatalf("%d background checkpoints failed: %s", st.SnapshotErrors, st.LastSnapshotError)
	}

	want := make(map[string]string)
	for w := range acked {
		for id, tag := range acked[w] {
			want[id] = string(mustJSON(t, testDoc(t, tag)))
		}
	}
	re := openTemp(t, dir, Durability{SnapshotEvery: -1})
	sameState(t, snapshotJSON(t, re), want, "reopened store")
}
