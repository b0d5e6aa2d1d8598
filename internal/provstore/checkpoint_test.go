package provstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/prov"
	"repro/internal/wal"
)

// checkpointCost runs one checkpoint and returns how many documents it
// put into the snapshot, how many of them it had to encode and how many
// payload bytes it wrote, all read off the store's own counters.
func checkpointCost(t *testing.T, s *Store) (docs, encoded, payload uint64) {
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
	return after.CheckpointDocs - before.CheckpointDocs,
		after.CheckpointDocsEncoded - before.CheckpointDocsEncoded,
		s.checkpointBytes.Load() - bytesBefore
}

// snapshotOnDisk returns the payload of dir's newest snapshot. The
// store using dir must be closed.
func snapshotOnDisk(t *testing.T, dir string) []byte {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rec.SnapshotPayload
}

// TestCheckpointEncodesOnlyWhatChanged: a checkpoint encodes the
// documents written since the previous one and copies the blobs of the
// rest, in this process and across a restart, where recovery hands each
// entry the blob its document was decoded from.
func TestCheckpointEncodesOnlyWhatChanged(t *testing.T) {
	const n, replaced, tail = 64, 5, 3
	dir := t.TempDir()
	opts := Durability{SnapshotEvery: -1, Shards: 4}
	id := func(i int) string { return fmt.Sprintf("doc-%02d", i) }
	stored := make(map[string]string) // id -> JSON of the document put last
	put := func(s *Store, i int, version string) {
		t.Helper()
		doc := compatDoc(t, fmt.Sprintf("%s-%d", version, i), 40)
		if err := s.Put(id(i), doc); err != nil {
			t.Fatal(err)
		}
		stored[id(i)] = string(mustJSON(t, doc))
	}
	wantCost := func(s *Store, label string, wantDocs, wantEncoded int) {
		t.Helper()
		docs, encoded, _ := checkpointCost(t, s)
		if docs != uint64(wantDocs) || encoded != uint64(wantEncoded) {
			t.Fatalf("%s: checkpoint stored %d documents and encoded %d, want %d and %d", label, docs, encoded, wantDocs, wantEncoded)
		}
	}

	s := openTemp(t, dir, opts)
	for i := 0; i < n; i++ {
		put(s, i, "v1")
	}
	wantCost(s, "first checkpoint", n, n)

	for i := 0; i < replaced; i++ {
		put(s, i, "v2")
	}
	if err := s.Delete(id(n - 1)); err != nil {
		t.Fatal(err)
	}
	put(s, n, "v1")
	wantCost(s, "after replacing, deleting and adding", n, replaced+1)

	// Nothing written: nothing encoded, and nothing allocated beyond the
	// payload itself. Growing the payload from nil cost about 3x.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	docs, encoded, payload := checkpointCost(t, s)
	runtime.ReadMemStats(&after)
	if docs != n || encoded != 0 {
		t.Fatalf("unchanged store: checkpoint stored %d documents and encoded %d, want %d and 0", docs, encoded, n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && float64(alloc) > 1.1*float64(payload) {
		t.Errorf("checkpoint of an unchanged store allocated %d bytes for a %d-byte payload, want <= 1.1x", alloc, payload)
	}

	// Every entry now holds its own document's encoding, exactly sized,
	// in place of the decoded document.
	s.eachEntry(func(e *entry) {
		if e.blob == nil || cap(e.blob) != len(e.blob) {
			t.Errorf("%s: blob len %d cap %d, want a blob with cap == len", e.id, len(e.blob), cap(e.blob))
			return
		}
		if e.doc.Load() != nil {
			t.Errorf("%s: still holds its decoded document after a checkpoint", e.id)
		}
		d, err := prov.ParseBinary(e.blob)
		if err != nil {
			t.Errorf("%s: blob does not decode: %v", e.id, err)
			return
		}
		if string(mustJSON(t, d)) != stored[e.id] {
			t.Errorf("%s: blob encodes a different document than the one put", e.id)
		}
	})
	want := snapshotJSON(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovered from the snapshot alone: every blob was handed over.
	s = openTemp(t, dir, opts)
	s.eachEntry(func(e *entry) {
		if e.blob == nil || cap(e.blob) != len(e.blob) {
			t.Errorf("%s recovered with blob len %d cap %d, want the snapshot's blob with cap == len", e.id, len(e.blob), cap(e.blob))
		}
	})
	sameState(t, snapshotJSON(t, s), want, "store recovered from the snapshot")
	wantCost(s, "after a restart", n, 0)

	// A journal tail replays as ordinary writes: those are encoded.
	put(s, 0, "v3")
	put(s, 1, "v3")
	put(s, n+1, "v1")
	want = snapshotJSON(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTemp(t, dir, opts)
	wantCost(s, "after a restart with a journal tail", n+1, tail)
	sameState(t, snapshotJSON(t, s), want, "reopened store")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// What the checkpoints concatenated reads back as the same store.
	s = openTemp(t, dir, opts)
	sameState(t, snapshotJSON(t, s), want, "store recovered from the concatenated snapshot")
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
