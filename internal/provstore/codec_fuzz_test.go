package provstore

import (
	"encoding/json"
	"testing"
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
