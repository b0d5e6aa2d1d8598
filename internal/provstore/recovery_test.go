package provstore

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// corpusDir is a data directory holding corpus documents 0..n-1 in one
// snapshot, then tail more puts of documents n.. in the journal tail
// behind it.
func corpusDir(t *testing.T, n, tail int) string {
	t.Helper()
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: 2})
	fillCorpus(t, s, n)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+tail; i++ {
		if err := s.Put(fmt.Sprintf("tail-%04d", i), corpusDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoveryReport: Open reports the snapshot's documents, bytes and
// time, the journal tail's records, bytes and time, and its own time,
// which covers both parts.
func TestRecoveryReport(t *testing.T) {
	dir := corpusDir(t, 64, 3)
	s := openTemp(t, dir, Durability{SnapshotEvery: -1})
	r := s.Stats().Durability.Recovery
	t.Logf("%+v", r)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r.SnapshotDocs != 64 || r.TailRecords != 3 {
		t.Errorf("recovered %d snapshot documents and %d tail records, want 64 and 3", r.SnapshotDocs, r.TailRecords)
	}
	rec := recovered(t, dir)
	tailBytes := 0
	for _, r := range rec.Records {
		tailBytes += len(r.Payload)
	}
	if r.SnapshotBytes != len(rec.SnapshotPayload) || r.TailBytes != tailBytes {
		t.Errorf("read %d snapshot and %d tail bytes, the directory holds %d and %d", r.SnapshotBytes, r.TailBytes, len(rec.SnapshotPayload), tailBytes)
	}
	if r.SnapshotMs <= 0 || r.TailMs <= 0 || r.TotalMs <= 0 {
		t.Errorf("a recovery time is not positive: %+v", r)
	}
	if r.SnapshotMs+r.TailMs > r.TotalMs {
		t.Errorf("snapshot %.3f ms + tail %.3f ms exceed the total %.3f ms", r.SnapshotMs, r.TailMs, r.TotalMs)
	}
}

// TestRecoverAllocsPerDoc bounds the heap allocations of Open per
// recovered document, on a snapshot of 256 corpus-shaped documents:
// each entry's index, blob and census, with no document decoded on the
// way. Building entries from decoded documents made 270 allocations per
// document; indexing the blobs makes 9.
func TestRecoverAllocsPerDoc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled build scratch at random")
	}
	const docs = 256
	dir := corpusDir(t, docs, 0)
	open := func() {
		s, err := Open(dir, Durability{SnapshotEvery: -1, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if s.Count() != docs {
			t.Fatalf("recovered %d documents, want %d", s.Count(), docs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open() // warm the pools
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	open()
	runtime.ReadMemStats(&after)
	perDoc := float64(after.Mallocs-before.Mallocs) / docs
	t.Logf("Open: %.1f allocations per recovered document", perDoc)
	if perDoc > 20 {
		t.Errorf("Open makes %.1f allocations per recovered document, over 20", perDoc)
	}
}

// TestEntriesKeepNoRecordBytes: an entry built from a journal record
// or a snapshot holds nothing of that buffer — not its blob, not a node
// name of its index, not a prov:type hit — so a recovered or replicated
// store does not pin the records it was read from.
func TestEntriesKeepNoRecordBytes(t *testing.T) {
	ops := []Op{putOp("doc-a", corpusDoc(0)), putOp("doc-b", corpusDoc(1))}
	entries := entriesOf(ops)
	record := appendRecord(nil, ops, entries, 0, "")
	snap := appendSnapshot(nil, entries, 1)
	for what, buf := range map[string][]byte{"record": record, "snapshot": snap} {
		var m mutation
		var err error
		if what == "record" {
			m, err = decodeRecordPayload(buf, 1)
		} else {
			m, err = decodeSnapshot(buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		hi := lo + uintptr(len(buf))
		inBuf := func(p unsafe.Pointer, n int) bool {
			return n > 0 && uintptr(p) >= lo && uintptr(p) < hi
		}
		for _, e := range m.entries {
			if inBuf(unsafe.Pointer(unsafe.SliceData(e.blob)), len(e.blob)) {
				t.Fatalf("%s: %s keeps a blob inside the buffer", what, e.id)
			}
			for id := int32(0); id < int32(e.ix.Len()); id++ {
				if q := string(e.ix.Name(id)); inBuf(unsafe.Pointer(unsafe.StringData(q)), len(q)) {
					t.Fatalf("%s: %s: node name %q lies inside the buffer", what, e.id, q)
				}
			}
			if len(e.types) == 0 {
				t.Fatalf("%s: %s has no prov:type hit to check", what, e.id)
			}
			for _, h := range e.types {
				if inBuf(unsafe.Pointer(unsafe.StringData(h.Type)), len(h.Type)) {
					t.Fatalf("%s: %s: type hit %q lies inside the buffer", what, e.id, h.Type)
				}
			}
		}
	}
}
