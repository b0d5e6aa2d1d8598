package provstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/prov"
	"repro/internal/wal"
)

// FuzzDecodeRecordPayload holds the journal record decoders to three
// properties: no input makes either panic; the serving decoder refuses,
// with ErrLegacyFormat and no mutation, every payload that opens with
// '{' and every record the upgrade decoder reads a PROV-JSON document
// from, and keeps only binary blobs from what it accepts; and a payload
// the upgrade decoder accepts, re-encoded by appendRecord over the
// entries it built (a JSON blob transcoded, as a put's is),
// decodes on the serving path to the same mutation — the same ids in
// the same order, the same puts and deletes, the same trace, Equal
// documents and byte-equal blobs.
func FuzzDecodeRecordPayload(f *testing.F) {
	docB := goldenDoc("b")
	rawB, err := docB.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal(journalOp{Op: "put", ID: "run/a", Shard: 3, Doc: rawB, Trace: goldenTrace})
	if err != nil {
		f.Fatal(err)
	}
	mask := uint32(goldenShards - 1)
	seeds := [][]byte{
		encodeRecord([]Op{putOp("run/a", goldenDoc("a"))}, mask, goldenTrace),
		encodeRecord([]Op{{ID: "run/a"}}, mask, ""),
		encodeRecord([]Op{putOp("run/b", docB), putOp("run/c", goldenDoc("c")), {ID: "run/d"}}, mask, goldenTrace),
		// As earlier builds journaled a batch line: its PROV-JSON.
		appendRecord(nil, []Op{{ID: "run/b"}, {ID: "run/d"}}, []*entry{{blob: rawB}, nil}, mask, goldenTrace),
		legacy,
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		served, err := decodeRecordPayload(payload, 1)
		m, upErr := upgradeRecord(payload, 1)
		spy, readJSON := jsonBlobSpy()
		if len(payload) > 0 && payload[0] != '{' {
			_, _ = decodeRecord(payload, 1, spy)
		}
		checkRefusal(t, payload, &served, err, upErr == nil && *readJSON)
		if upErr != nil {
			return
		}
		again, err := decodeRecordPayload(appendRecord(nil, m.ops, m.entries, mask, m.trace), 1)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if again.trace != m.trace || len(again.ops) != len(m.ops) {
			t.Fatalf("trace %q, %d ops re-decode as trace %q, %d ops", m.trace, len(m.ops), again.trace, len(again.ops))
		}
		for i, op := range m.ops {
			got, doc, gotDoc := again.ops[i], opDoc(&m, i), opDoc(&again, i)
			if got.ID != op.ID || (gotDoc == nil) != (doc == nil) {
				t.Fatalf("op %d: %q (put %v) re-decodes as %q (put %v)", i, op.ID, doc != nil, got.ID, gotDoc != nil)
			}
			if doc != nil && !gotDoc.Equal(doc) {
				t.Fatalf("op %d (%q): document changed through the record codec", i, op.ID)
			}
			if !bytes.Equal(opBlob(&again, i), opBlob(&m, i)) {
				t.Fatalf("op %d (%q): blob changed through the record codec", i, op.ID)
			}
		}
	})
}

// FuzzDecodeSnapshot holds the snapshot decoders, which also decide
// the blob each recovered entry keeps, to three properties: no input
// makes either panic; the serving decoder refuses, as
// FuzzDecodeRecordPayload has it refuse records, every snapshot that
// opens with '{' or that the upgrade decoder reads a PROV-JSON document
// from; and a payload the upgrade decoder accepts, applied to a fresh
// store as recovery applies it and re-encoded by appendSnapshot,
// decodes on the serving path and applies to an equal store — the same
// ids, Equal documents and byte-equal kept blobs.
func FuzzDecodeSnapshot(f *testing.F) {
	docA, docB := goldenDoc("a"), goldenDoc("b")
	rawA, err := docA.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	rawB, err := docB.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	binarySnap := appendSnapshot(nil, entriesOf([]Op{putOp("run/a", docA), putOp("run/b", docB)}), goldenShards)
	// A binary snapshot may carry a PROV-JSON blob, which no entry keeps.
	jsonBlobSnap := appendBlob(appendLenString(binary.AppendUvarint([]byte{recBinaryTag, goldenShards}, 1), "run/b"), rawB)
	legacy, err := json.Marshal(storeSnapshot{Docs: map[string]json.RawMessage{"run/a": rawA, "run/b": rawB}, Shards: goldenShards})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	for _, s := range [][]byte{binarySnap, jsonBlobSnap, legacy} {
		f.Add(s)
		f.Add(s[:len(s)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		served, err := decodeSnapshot(payload)
		m, upErr := upgradeSnapshot(payload)
		spy, readJSON := jsonBlobSpy()
		if len(payload) > 0 && payload[0] != '{' {
			_, _ = decodeSnapshotWith(payload, spy)
		}
		checkRefusal(t, payload, &served, err, upErr == nil && *readJSON)
		if upErr != nil {
			return
		}
		first := New()
		if len(m.ops) > 0 {
			if _, err := first.apply(context.Background(), &m); err != nil {
				return // recovery refuses it too (a dangling relation)
			}
		}
		var entries []*entry
		first.eachEntry(func(e *entry) { entries = append(entries, e) })
		slices.SortFunc(entries, func(a, b *entry) int { return strings.Compare(a.id, b.id) })
		reencoded := appendSnapshot(nil, entries, 1)
		again, err := decodeSnapshot(reencoded)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		second := New()
		if len(again.ops) > 0 {
			if _, err := second.apply(context.Background(), &again); err != nil {
				t.Fatalf("re-encoded snapshot does not apply: %v", err)
			}
		}
		ids := first.List()
		if got := second.List(); !slices.Equal(got, ids) {
			t.Fatalf("ids %q come back as %q", ids, got)
		}
		for _, id := range ids {
			e1, e2 := first.shardFor(id).docs[id], second.shardFor(id).docs[id]
			if !e2.document().Equal(e1.document()) {
				t.Fatalf("%q: document changed through the snapshot codec", id)
			}
			if !bytes.Equal(e1.blob, e2.blob) {
				t.Fatalf("%q: kept blob changed through the snapshot codec", id)
			}
		}
	})
}

// TestRecordCountsBoundedByInput: a snapshot payload declaring more
// documents, or a batch record more sub-ops, than its bytes could hold
// is refused before the count sizes anything. Before the counts were
// bounded by the smallest encoding of an item, a 1 MiB snapshot payload
// made the decoder allocate 33.6 MB before it failed, and a 1 MiB batch
// record 25.2 MB. A count exactly at that bound passes the check; when
// the op and entry lists were sized by the count alone, a snapshot
// payload declaring that many documents allocated 6.4 times its length
// before its first document failed.
func TestRecordCountsBoundedByInput(t *testing.T) {
	filler := make([]byte, 1<<20)
	n := len(filler)
	// A shard count of 1, then a document count.
	snapshot := func(docs int) []byte {
		return append(binary.AppendUvarint([]byte{recBinaryTag, 1}, uint64(docs)), filler...)
	}
	// No trace, then a sub-op count.
	batch := func(ops int) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{recBinaryTag, recOpBatch, 0}, uint32(ops)), filler...)
	}
	decodeSnap := func(p []byte) error { _, err := decodeSnapshot(p); return err }
	decodeBatch := func(p []byte) error { _, err := decodeRecordPayload(p, 1); return err }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The count exactly at the bound passes the check; the first item
	// then fails (an empty blob, an unknown sub-op byte).
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"snapshot declaring one document per byte", snapshot(n), decodeSnap},
		{"batch record declaring one sub-op per byte", batch(n), decodeBatch},
		{"snapshot at the bound", snapshot(n / minSnapshotDocBytes), decodeSnap},
		{"batch record at the bound", batch(n / minSubOpBytes), decodeBatch},
	} {
		if tc.decode(tc.payload) == nil {
			t.Fatalf("the %s decoder accepts its payload", tc.name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for range runs {
			_ = tc.decode(tc.payload)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %d-byte payload, %.0f bytes allocated", tc.name, len(tc.payload), bytes)
		if bytes > 2*float64(len(tc.payload)) {
			t.Errorf("%s: the decoder allocates %.0f bytes on a %d-byte payload, over twice its length", tc.name, bytes, len(tc.payload))
		}
	}
}

// jsonBlobSpy is the upgrade decoder's entryReader, and whether it has
// read a PROV-JSON document blob.
func jsonBlobSpy() (entryReader, *bool) {
	readJSON := new(bool)
	return func(id string, blob []byte) (*entry, error) {
		*readJSON = *readJSON || (len(blob) > 0 && blob[0] == '{')
		return legacyEntry(id, blob)
	}, readJSON
}

// checkRefusal holds the serving decoder's result on payload, m and
// err, to the format contract: a payload that opens with '{', or one
// holding a PROV-JSON document (holdsJSON), is refused with
// ErrLegacyFormat and no mutation; an accepted one keeps only binary
// blobs.
func checkRefusal(t *testing.T, payload []byte, m *mutation, err error, holdsJSON bool) {
	t.Helper()
	if (len(payload) > 0 && payload[0] == '{') || holdsJSON {
		if !errors.Is(err, ErrLegacyFormat) || m.ops != nil {
			t.Fatalf("an earlier build's format decodes to %d ops, %v; want ErrLegacyFormat", len(m.ops), err)
		}
		return
	}
	if err != nil {
		return
	}
	for i, op := range m.ops {
		if blob := opBlob(m, i); op.Blob != nil || (blob != nil && blob[0] != prov.BinaryDocTag) {
			t.Fatalf("op %d (%q) keeps a blob tagged %.1q", i, op.ID, blob)
		}
	}
}

// corpusSeeds reads the byte inputs of a committed go-fuzz corpus
// directory ("go test fuzz v1" files holding one []byte each).
func corpusSeeds(f *testing.F, dir string) [][]byte {
	f.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus under %s (%v)", dir, err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzApplyRecoversEqual: whatever PROV-JSON the local write path
// accepts — transcoded to its blob (the blob AppendBinary writes for
// the document ParseJSON decodes, byte for byte), and stored by a put
// and, beside another document, by a 2-op batch — is held byte for byte
// as that blob by the live store, the store reopened on its journal, a
// follower fed the primary's records and the store reopened after a
// checkpoint; and the snapshot stores each document's blob as its
// journal record carried it.
func FuzzApplyRecoversEqual(f *testing.F) {
	// compatDoc takes a *testing.T only to mark itself a helper.
	for _, d := range []*prov.Document{goldenDoc("a"), compatDoc(&testing.T{}, "c", 3)} {
		raw, err := d.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range corpusSeeds(f, "../prov/testdata/fuzz/FuzzParseJSONMatchesReference") {
		f.Add(seed)
	}
	other := encodeBlob(goldenDoc("other"))
	f.Fuzz(func(t *testing.T, data []byte) {
		blob, invalid, err := jsonBlob(data)
		if err != nil || invalid != nil {
			return
		}
		doc, err := prov.ParseJSON(data)
		if err != nil {
			t.Fatalf("the transcoder accepts what ParseJSON refuses: %v", err)
		}
		if want := prov.AppendBinary(nil, doc); !bytes.Equal(blob, want) {
			t.Fatalf("transcoded blob\n%x\nAppendBinary(ParseJSON)\n%x", blob, want)
		}
		wants := map[string][]byte{"put": blob, "batched": blob, "other": other}
		holdsWanted := func(s *Store, label string) {
			t.Helper()
			for id, w := range wants {
				if v, ok := s.View(id); !ok || !bytes.Equal(v.e.blob, w) {
					t.Fatalf("%s: %s holds another blob (stored %v)", label, id, ok)
				}
			}
		}

		dir := t.TempDir()
		opts := Durability{SnapshotEvery: -1, Shards: 2}
		s := openTemp(t, dir, opts)
		ctx := context.Background()
		if err := s.Apply(ctx, []Op{{ID: "put", Blob: bytes.Clone(blob)}}); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := s.Apply(ctx, []Op{{ID: "batched", Blob: bytes.Clone(blob)}, {ID: "other", Blob: bytes.Clone(other)}}); err != nil {
			t.Fatalf("batch: %v", err)
		}
		holdsWanted(s, "live store")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rec := recovered(t, dir)
		_, journaled := diskBlobs(t, dir)

		s = openTemp(t, dir, opts)
		holdsWanted(s, "store reopened on its journal")

		follower := openTemp(t, t.TempDir(), Durability{SnapshotEvery: -1, Follower: true})
		var last wal.Ticket
		for _, r := range rec.Records {
			tk, ok, err := follower.ApplyReplicated(r)
			if err != nil || !ok {
				t.Fatalf("follower: record %d: applied %v, %v", r.Seq, ok, err)
			}
			last = tk
		}
		if err := last.Commit(); err != nil {
			t.Fatal(err)
		}
		holdsWanted(follower, "follower")

		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		snap, _ := diskBlobs(t, dir)
		for id := range wants {
			if !bytes.Equal(snap[id], journaled[id]) {
				t.Fatalf("%s: the snapshot's blob is not the journal record's", id)
			}
		}
		holdsWanted(openTemp(t, dir, opts), "store reopened after a checkpoint")
	})
}
