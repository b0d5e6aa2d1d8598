package provstore

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/prov"
)

// An entry holds its document as its binary blob alone (see entry).
// These tests pin what that changes — nothing any read returns — and
// what it saves.

// runDoc is run i of an experiment: documents share the dataset and
// each names the previous run's model, so cross-document traversal has
// junctions to pivot on. Times are in a non-UTC zone.
func runDoc(i int) *prov.Document {
	zone := time.FixedZone("CEST", 2*3600)
	d := prov.NewDocument()
	run := prov.QName(fmt.Sprintf("ex:run-%d", i))
	model := prov.QName(fmt.Sprintf("ex:model-%d", i))
	d.AddEntity("ex:dataset", prov.Attrs{"prov:type": prov.Str("provml:Dataset"), "ex:rows": prov.Int(1000)})
	d.AddEntity(model, prov.Attrs{"prov:type": prov.Str("provml:Model"), "ex:lr": prov.Float(0.25), "ex:owner": prov.Str(fmt.Sprintf("team-%d", i%3))})
	act := d.AddActivity(run, prov.Attrs{"prov:type": prov.Str("provml:RunExecution")})
	act.StartTime = time.Date(2026, 3, 1, 9, i, 0, 0, zone)
	act.EndTime = time.Date(2026, 3, 1, 10, i, 30, 0, zone)
	d.Used(run, "ex:dataset", time.Date(2026, 3, 1, 9, i, 5, 0, zone))
	d.WasGeneratedBy(model, run, time.Date(2026, 3, 1, 10, i, 0, 0, zone))
	if i > 0 {
		prev := prov.QName(fmt.Sprintf("ex:model-%d", i-1))
		d.AddEntity(prev, nil)
		d.WasDerivedFrom(model, prev)
	}
	return d
}

// storeWideReads is every store-wide read's answer on the runDoc store.
type storeWideReads struct {
	Lineage  [][]CrossNode
	ByType   [][]SearchResult
	ByAttr   [][]SearchResult
	Decoding [][]SearchResult // the one kind that reads blobs
}

func readStoreWide(t *testing.T, s *Store, decode bool) storeWideReads {
	t.Helper()
	var r storeWideReads
	for _, q := range []struct {
		start prov.QName
		dir   LineageDirection
		depth int
	}{{"ex:dataset", Descendants, 0}, {"ex:model-9", Ancestors, 0}, {"ex:model-2", Descendants, 2}, {"ex:run-4", Ancestors, 1}} {
		nodes, err := s.CrossDocLineage(q.start, q.dir, q.depth)
		if err != nil {
			t.Fatal(err)
		}
		r.Lineage = append(r.Lineage, nodes)
	}
	for _, typ := range []string{"provml:Model", "provml:Dataset", "provml:RunExecution", "provml:Nothing"} {
		r.ByType = append(r.ByType, s.FindByType(typ))
	}
	r.ByAttr = append(r.ByAttr, s.FindByAttr(typeKey, "provml:Model"))
	if decode {
		r.Decoding = append(r.Decoding,
			s.FindByAttr("ex:owner", "team-1"), s.FindByAttr("ex:lr", 0.25), s.FindByAttr("qname", "ex:dataset"), s.FindByAttr("doc", "run-3"))
	}
	return r
}

// TestStoreWideReadsSameWithoutDocuments: cross-document lineage and
// type search answer from each entry's index and type hits,
// attribute search from its blob, and all of them answer the same
// before a checkpoint, after it and after reopening the directory
// (entries built from the snapshot). With
// every blob made unreadable, all but the attribute search on another
// key still answer: they never read a blob.
func TestStoreWideReadsSameWithoutDocuments(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	opts := Durability{SnapshotEvery: -1, Shards: 4}
	s := openTemp(t, dir, opts)
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("run-%d", i), runDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := readStoreWide(t, s, true)
	if len(want.Lineage[0]) != 2*n || len(want.ByType[0]) != n || len(want.Decoding[0]) == 0 {
		t.Fatalf("unexpected baseline: %+v", want)
	}
	same := func(label string, got storeWideReads) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", label, got, want)
		}
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	same("after the checkpoint", readStoreWide(t, s, true))

	blobs := map[*entry][]byte{}
	s.eachEntry(func(e *entry) { blobs[e], e.blob = e.blob, []byte{0xFF} })
	got := readStoreWide(t, s, false)
	got.Decoding = want.Decoding
	same("with unreadable blobs", got)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an attribute search read no blob")
			}
		}()
		s.FindByAttr("ex:owner", "team-1")
	}()
	for e, b := range blobs {
		e.blob = b
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	same("after reopening", readStoreWide(t, openTemp(t, dir, opts), true))
}

// TestBlobOnlyReadsRace (run under -race): readers take views, decode
// documents, extract subgraphs and run attribute and cross-document
// searches while writers replace the same ids and checkpoints run back
// to back, each one reading every entry's blob under the readers' feet.
// Every view reads as one of the versions written.
func TestBlobOnlyReadsRace(t *testing.T) {
	s := openTemp(t, t.TempDir(), Durability{SnapshotEvery: -1, Shards: 2})
	const ids, writers, rounds = 6, 2, 25
	id := func(i int) string { return fmt.Sprintf("run-%d", i) }
	// Version r of document i is runDoc(i + r*ids): JSON known up front.
	versions := map[string]bool{}
	for i := 0; i < ids*(rounds+1); i++ {
		versions[string(mustJSON(t, runDoc(i)))] = true
	}
	for i := 0; i < ids; i++ {
		if err := s.Put(id(i), runDoc(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				for i := w; i < ids; i += writers {
					if err := s.Put(id(i), runDoc(i+r*ids)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
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
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				v, ok := s.View(id(k % ids))
				if !ok {
					t.Errorf("%s missing", id(k%ids))
					return
				}
				if !versions[string(mustJSON(t, v.Document()))] {
					t.Errorf("%s reads a version nobody wrote", id(k%ids))
					return
				}
				if _, err := v.Subgraph("ex:dataset", 1); err != nil {
					t.Error(err)
					return
				}
				if len(s.FindByAttr("ex:lr", 0.25)) != ids {
					t.Error("attribute search lost documents")
					return
				}
				if _, err := s.CrossDocLineage("ex:dataset", Descendants, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
}

// corpusDoc is document i of a corpus shaped like the service
// benchmark's: used/wasGeneratedBy chains of depth 12, 64 or 256 (24, 7
// and 1 in every 32 documents), a 16-hex-digit tag on every entity, the
// last entity typed as a model.
func corpusDoc(i int) *prov.Document {
	depth := 12
	switch i % 32 {
	case 0:
		depth = 256
	case 1, 2, 3, 4, 5, 6, 7:
		depth = 64
	}
	d := prov.NewDocument()
	for j := 0; j < depth; j++ {
		e, a := prov.QName(fmt.Sprintf("ex:e%d", j)), prov.QName(fmt.Sprintf("ex:a%d", j))
		attrs := prov.Attrs{"bench:tag": prov.Str(fmt.Sprintf("%016x", uint64(i)<<20|uint64(j)))}
		if j == depth-1 {
			attrs["prov:type"] = prov.Str("provml:Model")
		}
		d.AddEntity(e, attrs)
		d.AddActivity(a, nil)
		if j > 0 {
			d.Used(a, prov.QName(fmt.Sprintf("ex:e%d", j-1)), time.Time{})
		}
		d.WasGeneratedBy(e, a, time.Time{})
	}
	return d
}

// fillCorpus stores corpus documents 0..n-1 the way the service does:
// batches of 32, each document decoded from its PROV-JSON. It returns
// the PROV-JSON bytes stored.
func fillCorpus(tb testing.TB, s *Store, n int) (jsonBytes int) {
	tb.Helper()
	for b := 0; b < n; b += 32 {
		var ops []Op
		for i := b; i < min(b+32, n); i++ {
			raw, err := corpusDoc(i).MarshalJSON()
			if err != nil {
				tb.Fatal(err)
			}
			doc, err := prov.ParseJSON(raw)
			if err != nil {
				tb.Fatal(err)
			}
			ops = append(ops, putOp(fmt.Sprintf("doc-%04d", i), doc))
			jsonBytes += len(raw)
		}
		if err := s.Apply(context.Background(), ops); err != nil {
			tb.Fatal(err)
		}
	}
	return jsonBytes
}

// liveHeap is the heap in use after two full collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRetainedHeapPerJSONByte: a journaled store of corpus-shaped
// documents retains under 0.6 B of heap per PROV-JSON byte it was sent
// — no entry holds a decoded document, and no index a string of the
// decode — from the first write, and a checkpoint, which only
// concatenates blobs the entries already hold, moves that by under
// 10 %.
func TestRetainedHeapPerJSONByte(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector is not the program's")
	}
	base := liveHeap()
	s := openTemp(t, t.TempDir(), Durability{SnapshotEvery: -1, Shards: 2})
	jsonBytes := int64(fillCorpus(t, s, 256))
	held := liveHeap() - base
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	kept := liveHeap() - base
	t.Logf("%d B of PROV-JSON: the store retains %d B (%.2f B/B) before a checkpoint, %d B (%.2f B/B) after one",
		jsonBytes, held, float64(held)/float64(jsonBytes), kept, float64(kept)/float64(jsonBytes))
	if 10*held >= 6*jsonBytes {
		t.Errorf("the store retains %d B for %d B of PROV-JSON, not under 0.6 B/B", held, jsonBytes)
	}
	if d := kept - held; 10*d >= held || -10*d >= held {
		t.Errorf("a checkpoint moved the retained heap from %d B to %d B, not by under 10 %%", held, kept)
	}
	runtime.KeepAlive(s)
}

// chainStore is a journaled store of n corpus documents, checkpointed:
// its entries hold their blobs alone.
func chainStore(b *testing.B, n int) *Store {
	s, err := Open(b.TempDir(), Durability{SnapshotEvery: -1, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	fillCorpus(b, s, n)
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkCrossDocLineage: the union traversal over every stored
// document of a 1 024-document corpus, from the root of every chain.
func BenchmarkCrossDocLineage(b *testing.B) {
	s := chainStore(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, err := s.CrossDocLineage("ex:e0", Descendants, 0)
		if err != nil || len(nodes) != 2*256-2 {
			b.Fatalf("%d nodes, %v", len(nodes), err)
		}
	}
}

// BenchmarkFindByAttr: an attribute search matching no element of a
// 1 024-document corpus, which walks every blob.
func BenchmarkFindByAttr(b *testing.B) {
	s := chainStore(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := s.FindByAttr("bench:tag", "none"); len(hits) != 0 {
			b.Fatalf("%d hits", len(hits))
		}
	}
}

// BenchmarkFindByType: a type search matching one element in each of
// 1 024 documents.
func BenchmarkFindByType(b *testing.B) {
	s := chainStore(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := s.FindByType("provml:Model"); len(hits) != 1024 {
			b.Fatalf("%d hits", len(hits))
		}
	}
}
