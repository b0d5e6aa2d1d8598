package provstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/prov"
)

func testDoc(t testing.TB, tag string) *prov.Document {
	t.Helper()
	d := prov.NewDocument()
	model := prov.NewQName("ex", "model-"+tag)
	data := prov.NewQName("ex", "data-"+tag)
	train := prov.NewQName("ex", "train-"+tag)
	d.AddEntity(model, prov.Attrs{"prov:type": prov.Str("provml:Model")})
	d.AddEntity(data, nil)
	d.AddActivity(train, nil)
	d.Used(train, data, time.Time{})
	d.WasGeneratedBy(model, train, time.Time{})
	return d
}

func openTemp(t *testing.T, dir string, d Durability) *Store {
	t.Helper()
	s, err := Open(dir, d)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestOpenPutCloseReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{Fsync: true})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("doc-%d", i)
		if err := s.Put(id, testDoc(t, id)); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	if err := s.Delete("doc-3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTemp(t, dir, Durability{})
	if s2.Count() != 9 {
		t.Fatalf("recovered %d docs, want 9", s2.Count())
	}
	if _, ok := s2.Get("doc-3"); ok {
		t.Fatal("deleted document resurrected by recovery")
	}
	// The graph projection must be queryable, not just the doc map.
	got, err := s2.Lineage("doc-5", prov.NewQName("ex", "model-doc-5"), Ancestors, 0)
	if err != nil || len(got) != 2 { // train activity + data entity
		t.Fatalf("lineage after recovery: %v %v", got, err)
	}
	hits := s2.FindByType("provml:Model")
	if len(hits) != 9 {
		t.Fatalf("FindByType after recovery = %d hits, want 9", len(hits))
	}
	// Mutations keep journaling after recovery.
	if err := s2.Put("doc-post", testDoc(t, "post")); err != nil {
		t.Fatal(err)
	}
}

// TestKill9TornTailLosesNothingAcknowledged is the acceptance scenario:
// a --fsync datadir is "crashed" by appending a torn record to the
// journal tail (what kill -9 mid-write leaves), and reopening must
// recover every acknowledged document.
func TestKill9TornTailLosesNothingAcknowledged(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1})
	const n = 25
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("acked-%02d", i)
		if err := s.Put(id, testDoc(t, id)); err != nil { // returned nil => acknowledged
			t.Fatal(err)
		}
	}
	// Simulate the crash: the process dies mid-append of document n+1,
	// leaving a partial record (header + garbage) on the newest segment.
	// A real kill -9 drops the directory flock with the process; in-test
	// the store must be closed to release it — equivalent here, since
	// with Fsync every acknowledged document was already durable before
	// this point and the torn record below is the not-yet-acked tail.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := newestSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir, Durability{Fsync: true})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	if s2.Count() != n {
		t.Fatalf("lost acknowledged documents: recovered %d, want %d", s2.Count(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(fmt.Sprintf("acked-%02d", i)); !ok {
			t.Fatalf("acknowledged doc %d missing after crash", i)
		}
	}
}

// TestCrashTruncationEveryPoint cuts the single-segment journal at a
// range of byte offsets and checks the recovered store is always a
// consistent prefix of the acknowledged history.
func TestCrashTruncationRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1})
	const n = 8
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("d%d", i), testDoc(t, fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := newestSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Cut at every 97th byte (plus the exact end) to keep runtime sane;
	// the byte-exact sweep lives in the wal package tests.
	cuts := []int{0}
	for c := 1; c < len(full); c += 97 {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, len(full))
	for _, cut := range cuts {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(seg)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := Open(cdir, Durability{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		k := sc.Count()
		if k > n {
			t.Fatalf("cut=%d: recovered %d > written %d", cut, k, n)
		}
		// Consistent prefix: exactly documents d0..d(k-1).
		for i := 0; i < k; i++ {
			if _, ok := sc.Get(fmt.Sprintf("d%d", i)); !ok {
				t.Fatalf("cut=%d: recovered %d docs but d%d missing (hole in prefix)", cut, k, i)
			}
		}
		sc.Close()
	}
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1] // names sort by first sequence
}

// TestSnapshotCompactionBoundsDisk drives >= 3 snapshot cycles and
// asserts the data directory does not accumulate segments or stale
// snapshots.
func TestSnapshotCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{SnapshotEvery: 10, SegmentBytes: 4096})
	var maxFiles int
	for cycle := 0; cycle < 4; cycle++ {
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("c%d-i%d", cycle, i)
			if err := s.Put(id, testDoc(t, id)); err != nil {
				t.Fatal(err)
			}
		}
		// Checkpoints run on a background goroutine; wait for this
		// cycle's to land before measuring (it has completed once the
		// snapshot counter reaches the cycle count).
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := s.Stats()
			if st.Durability != nil && st.Durability.Snapshots >= uint64(cycle+1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: checkpoint never landed: %+v", cycle, st.Durability)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// The snapshot counter moves before compaction finishes; wait for
		// the checkpoint goroutine to let go, or the next cycle's trigger
		// can find it "still in flight" and be skipped.
		s.snapMu.Lock()
		s.snapMu.Unlock()
		files := 0
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for range entries {
			files++
		}
		if files > maxFiles {
			maxFiles = files
		}
	}
	// Steady state per cycle: lock file + 1 active segment + 1 snapshot
	// (+1 briefly superseded). 40 puts with rotation at 4 KiB would
	// leave ~15 files without compaction.
	if maxFiles > 5 {
		t.Fatalf("compaction not bounding disk: %d files", maxFiles)
	}
	st := s.Stats()
	if st.Durability == nil || st.Durability.Snapshots < 3 {
		t.Fatalf("expected >=3 snapshots, stats=%+v", st.Durability)
	}
	if st.Durability.SegmentsRemoved == 0 {
		t.Fatal("compaction removed no segments")
	}
	// Everything must still be there after all that churn.
	s.Close()
	s2 := openTemp(t, dir, Durability{})
	if s2.Count() != 40 {
		t.Fatalf("recovered %d docs, want 40", s2.Count())
	}
}

// TestConcurrentPutsAndCheckpoints races writers against explicit and
// cadence-driven snapshots (run under -race via make race).
func TestConcurrentPutsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{SnapshotEvery: 7})
	const writers, per = 4, 20
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Put(id, testDoc(t, id)); err != nil {
					errc <- err
					return
				}
				if _, ok := s.Get(id); !ok {
					errc <- fmt.Errorf("read-own-write failed for %s", id)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Checkpoint(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTemp(t, dir, Durability{})
	if s2.Count() != writers*per {
		t.Fatalf("recovered %d docs, want %d", s2.Count(), writers*per)
	}
}

// TestLegacyJSONImportIntoJournaledStore: a pre-WAL data directory of
// *.json files is refused, upgrades into a journaled store, and stays
// durable across a reopen.
func TestLegacyJSONImportIntoJournaledStore(t *testing.T) {
	dir := t.TempDir()
	files := map[string]*prov.Document{}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("old-%d", i)
		files[id+".json"] = testDoc(t, id)
	}
	writePreWAL(t, dir, files)

	s := refusedThenUpgraded(t, dir, Durability{})
	if err := s.Put("new", testDoc(t, "new")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTemp(t, dir, Durability{})
	if s2.Count() != 4 {
		t.Fatalf("upgraded docs not durable: %d", s2.Count())
	}
}

// TestInMemoryStoreUnchanged: New() stores take none of the journal
// paths and Close/Sync/Checkpoint are no-ops.
func TestInMemoryStoreDurabilityNoops(t *testing.T) {
	s := New()
	if err := s.Put("d", testDoc(t, "d")); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Durability != nil {
		t.Fatal("in-memory store reported durability stats")
	}
}
