package provstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/wal"
)

// Format pin. testdata/format_golden.txt holds payloads the parent of
// the one-pipeline refactor wrote for a put, a delete and a snapshot,
// and a mixed 3-op batch whose documents are all binary blobs. The
// encoder must reproduce them byte for byte — directly and end to end
// through a durable store — and the decoder must turn each into the
// same mutation. Each one's legacy-JSON equivalent, and batch-jsonblob,
// the batch as earlier builds journaled it with one document held as
// the PROV-JSON the request carried, must be refused with
// ErrLegacyFormat by the serving decoders and read by the upgrade's
// into that same mutation.

const (
	goldenTrace  = "golden-1"
	goldenShards = 4
)

// goldenDoc is deterministic under the binary document codec (which
// iterates maps): one entity with one attribute, one activity, one
// relation.
func goldenDoc(tag string) *prov.Document {
	d := prov.NewDocument()
	e := prov.NewQName("ex", tag+"-e")
	a := prov.NewQName("ex", tag+"-a")
	d.AddEntity(e, prov.Attrs{"provml:name": prov.Str(tag)})
	d.AddActivity(a, nil).StartTime = time.Date(2025, 7, 1, 0, 0, 0, 0, time.UTC)
	d.WasGeneratedBy(e, a, time.Date(2025, 7, 1, 1, 0, 0, 0, time.UTC))
	return d
}

// goldenManyDoc has several elements of every class and several
// attributes per record, so that a map-order encoder would write its
// blob differently from call to call; its relations are in PROV-JSON
// order (kind, then id).
func goldenManyDoc() *prov.Document {
	d := prov.NewDocument()
	d.Namespaces.Register("run", "http://example.org/run#")
	t0 := time.Date(2025, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := range 6 {
		d.AddEntity(prov.QName(fmt.Sprintf("ex:ckpt%d", i)), prov.Attrs{
			"prov:type": prov.Str("provml:Checkpoint"), "run:step": prov.Int(int64(100 * i)),
			"run:loss": prov.Float(1 / float64(i+1)), "run:best": prov.Bool(i == 5),
			"run:saved": prov.Time(t0.Add(time.Duration(i) * time.Hour)),
		})
	}
	for i := range 3 {
		a := d.AddActivity(prov.QName(fmt.Sprintf("ex:epoch%d", i)), prov.Attrs{"prov:type": prov.Str("provml:Epoch"), "run:lr": prov.Float(0.01), "run:index": prov.Int(int64(i))})
		a.StartTime = t0.Add(time.Duration(2*i) * time.Hour)
		a.EndTime = a.StartTime.Add(2 * time.Hour)
	}
	for i := range 3 {
		d.AddAgent(prov.QName(fmt.Sprintf("ex:worker%d", i)), prov.Attrs{"provml:name": prov.Str(fmt.Sprintf("worker %d", i)), "run:rank": prov.Int(int64(i))})
	}
	for i := range 3 {
		d.Used(prov.QName(fmt.Sprintf("ex:epoch%d", i)), prov.QName(fmt.Sprintf("ex:ckpt%d", 2*i)), t0)
	}
	for i := range 3 {
		d.WasGeneratedBy(prov.QName(fmt.Sprintf("ex:ckpt%d", 2*i+1)), prov.QName(fmt.Sprintf("ex:epoch%d", i)), t0.Add(time.Duration(2*i+1)*time.Hour))
	}
	for i := range 3 {
		d.WasAssociatedWith(prov.QName(fmt.Sprintf("ex:epoch%d", i)), prov.QName(fmt.Sprintf("ex:worker%d", i))).Attrs["prov:role"] = prov.Str("trainer")
	}
	return d
}

// TestCanonicalBlobGolden: goldenManyDoc encodes to the pinned bytes
// every time, and the store keeps exactly them.
func TestCanonicalBlobGolden(t *testing.T) {
	want := loadGolden(t)["blob-many"]
	for i := range 20 {
		if got := prov.AppendBinary(nil, goldenManyDoc()); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the golden bytes:\n got %x\nwant %x", i, got, want)
		}
	}
	s := New()
	if err := s.Put("many", goldenManyDoc()); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.View("many"); !bytes.Equal(v.e.blob, want) {
		t.Fatalf("the store keeps\n%x\nwant %x", v.e.blob, want)
	}
}

func loadGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open("testdata/format_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %q: %v", name, err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustJSON(t *testing.T, d *prov.Document) []byte {
	t.Helper()
	j, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// goldenOps are the three pinned mutations, batch ops deliberately not
// in id order (Apply sorts).
func goldenOps(t *testing.T) (put, del, batch []Op) {
	docB := goldenDoc("b")
	put = []Op{putOp("run/a", goldenDoc("a"))}
	del = []Op{{ID: "run/a"}}
	batch = []Op{{ID: "run/d"}, putOp("run/c", goldenDoc("c")), putOp("run/b", docB)}
	return put, del, batch
}

// encodeRecord is the record a primary journals for ops: appendRecord
// over the entries Apply builds for them.
func encodeRecord(ops []Op, mask uint32, trace string) []byte {
	return appendRecord(nil, ops, entriesOf(ops), mask, trace)
}

// putOp is the put of doc under id, its blob encoded as Put encodes it
// but not validated.
func putOp(id string, doc *prov.Document) Op {
	return Op{ID: id, Blob: encodeBlob(doc)}
}

// encodeBlob is doc's binary encoding, exactly sized as a put keeps it
// (keepBlob), whether or not doc is valid.
func encodeBlob(doc *prov.Document) []byte {
	return keepBlob(prov.AppendBinary(getOpBuf(), doc))
}

// entriesOf is what the record and snapshot encoders read of the
// entries ops install: each put's id and blob; nil for a delete. The
// blobs are not indexed, so a record can carry one that recovery
// refuses.
func entriesOf(ops []Op) []*entry {
	entries := make([]*entry, len(ops))
	for i, op := range ops {
		if op.Blob != nil {
			entries[i] = &entry{id: op.ID, blob: op.Blob}
		}
	}
	return entries
}

// opBlob is the blob the entry m's op i installs keeps; nil for a
// delete.
func opBlob(m *mutation, i int) []byte {
	if e := m.entries[i]; e != nil {
		return e.blob
	}
	return nil
}

// opDoc is the document a decoded mutation's op i stores, decoded from
// its entry's blob; nil for a delete.
func opDoc(m *mutation, i int) *prov.Document {
	if e := m.entries[i]; e != nil {
		return e.document()
	}
	return nil
}

func wantBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if string(got) != string(want) {
		t.Errorf("%s differs from the golden bytes:\n got %x\nwant %x", what, got, want)
	}
}

func TestRecordFormatGoldenEncode(t *testing.T) {
	golden := loadGolden(t)
	put, del, batch := goldenOps(t)

	sorted := []Op{batch[2], batch[1], batch[0]}
	wantBytes(t, "put record", encodeRecord(put, goldenShards-1, goldenTrace), golden["put"])
	wantBytes(t, "delete record", encodeRecord(del, goldenShards-1, goldenTrace), golden["del"])
	wantBytes(t, "batch record", encodeRecord(sorted, goldenShards-1, goldenTrace), golden["batch"])
	e, err := newEntry("run/a", put[0].Blob)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes(t, "snapshot", appendSnapshot(nil, []*entry{e}, goldenShards), golden["snap"])

	// End to end: the same bytes reach the journal through the store.
	dir := t.TempDir()
	ctx := obs.WithTrace(context.Background(), obs.NewTrace(goldenTrace))
	journal := func() *wal.RecoveredState {
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
	s := openTemp(t, dir, Durability{Shards: goldenShards, SnapshotEvery: -1})
	if err := s.Apply(ctx, put); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := journal(); len(rec.Records) != 1 {
		t.Fatalf("journal holds %d records, want 1", len(rec.Records))
	} else {
		wantBytes(t, "journaled put", rec.Records[0].Payload, golden["put"])
	}

	s = openTemp(t, dir, Durability{Shards: goldenShards, SnapshotEvery: -1})
	if err := s.Checkpoint(); err != nil { // single document: map order is moot
		t.Fatal(err)
	}
	if err := s.Put("run/d", goldenDoc("d")); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(ctx, del); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := journal()
	wantBytes(t, "journaled snapshot", rec.SnapshotPayload, golden["snap"])
	if len(rec.Records) != 3 {
		t.Fatalf("journal tail holds %d records, want 3", len(rec.Records))
	}
	wantBytes(t, "journaled batch", rec.Records[1].Payload, golden["batch"])
	wantBytes(t, "journaled delete", rec.Records[2].Payload, golden["del"])
}

func TestRecordFormatGoldenDecode(t *testing.T) {
	golden := loadGolden(t)
	docA, docB, docC := goldenDoc("a"), goldenDoc("b"), goldenDoc("c")
	legacy := func(op journalOp) []byte {
		t.Helper()
		b, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	legacySnap, err := json.Marshal(storeSnapshot{Docs: map[string]json.RawMessage{"run/a": mustJSON(t, docA)}, Shards: goldenShards})
	if err != nil {
		t.Fatal(err)
	}

	type wantOp struct {
		id  string
		doc *prov.Document // nil = delete
	}
	putA := []wantOp{{"run/a", docA}}
	delA := []wantOp{{"run/a", nil}}
	batch := []wantOp{{"run/b", docB}, {"run/c", docC}, {"run/d", nil}}
	record := func(p []byte) (mutation, error) { return decodeRecordPayload(p, 7) }
	upgradeRec := func(p []byte) (mutation, error) { return upgradeRecord(p, 7) }

	for _, tc := range []struct {
		name             string
		decode, upgraded func([]byte) (mutation, error)
		payload          []byte
		trace            string
		ops              []wantOp
		legacy           bool // refused by decode, read by upgraded
	}{
		{"binary put", record, upgradeRec, golden["put"], goldenTrace, putA, false},
		{"binary delete", record, upgradeRec, golden["del"], goldenTrace, delA, false},
		{"binary batch", record, upgradeRec, golden["batch"], goldenTrace, batch, false},
		{"binary batch with a JSON blob", record, upgradeRec, golden["batch-jsonblob"], goldenTrace, batch, true},
		{"binary snapshot", decodeSnapshot, upgradeSnapshot, golden["snap"], "", putA, false},
		{"legacy put", record, upgradeRec, legacyPutPayload(t, "run/a", docA, 2), "", putA, true},
		{"legacy delete", record, upgradeRec, legacyDeletePayload(t, "run/a"), "", delA, true},
		{"legacy batch", record, upgradeRec, legacy(journalOp{Op: "batch", Trace: goldenTrace, Ops: []journalOp{
			{Op: "put", ID: "run/b", Shard: 3, Doc: mustJSON(t, docB)},
			{Op: "put", ID: "run/c", Doc: mustJSON(t, docC)},
			{Op: "delete", ID: "run/d", Shard: 1},
		}}), goldenTrace, batch, true},
		{"legacy snapshot", decodeSnapshot, upgradeSnapshot, legacySnap, "", putA, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(label string, m mutation, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				// Decoded mutations tolerate missing deletes and carry
				// nothing to stage until a caller says so.
				if !m.lenient || m.record != nil || m.seq != 0 || m.trace != tc.trace {
					t.Fatalf("%s: mutation = {lenient:%v record:%x seq:%d trace:%q}, want lenient, unstaged, trace %q",
						label, m.lenient, m.record, m.seq, m.trace, tc.trace)
				}
				if len(m.ops) != len(tc.ops) {
					t.Fatalf("%s: %d ops, want %d", label, len(m.ops), len(tc.ops))
				}
				for i, w := range tc.ops {
					op, doc := m.ops[i], opDoc(&m, i)
					if op.ID != w.id || op.Blob != nil || (doc == nil) != (w.doc == nil) {
						t.Fatalf("%s: op %d = {%q, delete=%v}, want {%q, delete=%v}", label, i, op.ID, doc == nil, w.id, w.doc == nil)
					}
					if w.doc != nil && string(mustJSON(t, doc)) != string(mustJSON(t, w.doc)) {
						t.Fatalf("%s: op %d (%q) decoded to a different document:\n got %s\nwant %s", label, i, op.ID, mustJSON(t, doc), mustJSON(t, w.doc))
					}
				}
			}
			m, err := tc.upgraded(tc.payload)
			check("upgrade decoder", m, err)
			m, err = tc.decode(tc.payload)
			if tc.legacy {
				if !errors.Is(err, ErrLegacyFormat) || m.ops != nil {
					t.Fatalf("serving decoder: %d ops, %v; want ErrLegacyFormat", len(m.ops), err)
				}
				return
			}
			check("serving decoder", m, err)
		})
	}

	// Damage is rejected before anything could be applied, by either
	// decoder.
	for name, p := range map[string][]byte{
		"truncated":      golden["batch"][:len(golden["batch"])-3],
		"trailing bytes": append(append([]byte(nil), golden["del"]...), 0),
		"nested batch":   legacy(journalOp{Op: "batch", Ops: []journalOp{{Op: "batch"}}}),
		"unknown op":     legacy(journalOp{Op: "merge"}),
	} {
		if _, err := record(p); err == nil {
			t.Errorf("%s record accepted", name)
		}
		if _, err := upgradeRec(p); err == nil {
			t.Errorf("%s record accepted by the upgrade", name)
		}
	}
}
