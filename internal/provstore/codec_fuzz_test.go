package provstore

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/prov"
)

// FuzzDecodeRecordPayload holds the journal record decoder to two
// properties: no input makes it panic, and a payload it accepts,
// re-encoded by appendRecord, decodes to the same mutation — the same
// ids in the same order, the same puts and deletes, the same trace and
// Equal documents.
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
		appendRecord(nil, []Op{{ID: "run/a", Doc: goldenDoc("a")}}, mask, goldenTrace),
		appendRecord(nil, []Op{{ID: "run/a"}}, mask, ""),
		appendRecord(nil, []Op{{ID: "run/b", Doc: docB, Raw: rawB}, {ID: "run/c", Doc: goldenDoc("c")}, {ID: "run/d"}}, mask, goldenTrace),
		legacy,
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeRecordPayload(payload, 1)
		if err != nil {
			return
		}
		again, err := decodeRecordPayload(appendRecord(nil, m.ops, mask, m.trace), 1)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if again.trace != m.trace || len(again.ops) != len(m.ops) {
			t.Fatalf("trace %q, %d ops re-decode as trace %q, %d ops", m.trace, len(m.ops), again.trace, len(again.ops))
		}
		for i, op := range m.ops {
			got := again.ops[i]
			if got.ID != op.ID || (got.Doc == nil) != (op.Doc == nil) {
				t.Fatalf("op %d: %q (put %v) re-decodes as %q (put %v)", i, op.ID, op.Doc != nil, got.ID, got.Doc != nil)
			}
			if op.Doc != nil && !got.Doc.Equal(op.Doc) {
				t.Fatalf("op %d (%q): document changed through the record codec", i, op.ID)
			}
		}
	})
}

// FuzzDecodeSnapshot holds the snapshot decoder, which also decides the
// blob each recovered entry keeps, to two properties: no input makes it
// panic, and a payload it accepts, applied to a fresh store as recovery
// applies it and re-encoded by appendSnapshot, decodes and applies to
// an equal store — the same ids, Equal documents and byte-equal kept
// blobs.
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
	entryOf := func(id string, doc *prov.Document, blob []byte) *entry {
		e, err := newEntry(id, doc, blob)
		if err != nil {
			f.Fatal(err)
		}
		return e
	}
	binarySnap, _ := appendSnapshot(nil, []*entry{entryOf("run/a", docA, nil), entryOf("run/b", docB, nil)}, goldenShards)
	// A binary snapshot may carry a PROV-JSON blob, which no entry keeps.
	jsonBlobSnap, _ := appendSnapshot(nil, []*entry{entryOf("run/b", docB, rawB)}, goldenShards)
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
		m, err := decodeSnapshot(payload)
		if err != nil {
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
		reencoded, _ := appendSnapshot(nil, entries, 1)
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
			d1, _ := e1.document()
			d2, _ := e2.document()
			if !d2.Equal(d1) {
				t.Fatalf("%q: document changed through the snapshot codec", id)
			}
			if !bytes.Equal(e1.blob, e2.blob) {
				t.Fatalf("%q: kept blob changed through the snapshot codec", id)
			}
		}
	})
}
