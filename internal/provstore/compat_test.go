package provstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/wal"
)

// Earlier formats: data dirs journaled by pre-codec builds hold JSON
// journalOp records, JSON snapshots, and binary records or snapshots
// around PROV-JSON doc blobs. Open and replication refuse each of them
// with ErrLegacyFormat before applying anything; Upgrade converts such
// a directory — record by record, within one segment — into the state
// Open recovered from it before the format narrowed.

func compatDoc(t *testing.T, tag string, n int) *prov.Document {
	t.Helper()
	d := prov.NewDocument()
	for i := 0; i < n; i++ {
		e := prov.NewQName("ex", fmt.Sprintf("%s-e%d", tag, i))
		a := prov.NewQName("ex", fmt.Sprintf("%s-a%d", tag, i))
		d.AddEntity(e, prov.Attrs{"provml:name": prov.Str(tag), "provml:idx": prov.Int(int64(i))})
		act := d.AddActivity(a, nil)
		act.StartTime = time.Date(2025, 7, 1, 0, 0, i, 0, time.UTC)
		d.WasGeneratedBy(e, a, time.Date(2025, 7, 1, 1, 0, i, 0, time.UTC))
	}
	return d
}

// legacyPutPayload renders the pre-codec JSON journalOp for a put,
// exactly as PR-7 builds journaled it.
func legacyPutPayload(t *testing.T, id string, doc *prov.Document, shard uint32) []byte {
	t.Helper()
	raw, err := doc.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(journalOp{Op: "put", ID: id, Shard: shard, Doc: raw})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func legacyDeletePayload(t *testing.T, id string) []byte {
	t.Helper()
	payload, err := json.Marshal(journalOp{Op: "delete", ID: id})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func legacyBatchPayload(t *testing.T, docs map[string]*prov.Document) []byte {
	t.Helper()
	var ops []journalOp
	for id, d := range docs {
		raw, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, journalOp{Op: "put", ID: id, Doc: raw})
	}
	payload, err := json.Marshal(journalOp{Op: "batch", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// writeLegacyJournal builds a data dir whose journal holds only JSON
// records, like a dir handed over from a pre-codec build.
func writeLegacyJournal(t *testing.T, dir string, payloads ...[]byte) {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last wal.Ticket
	for _, p := range payloads {
		last, err = l.Stage(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := last.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotJSON captures every document's canonical JSON, the byte-level
// oracle for "same store state".
func snapshotJSON(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, id := range s.List() {
		d, ok := s.Get(id)
		if !ok {
			t.Fatalf("doc %q listed but missing", id)
		}
		j, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[id] = string(j)
	}
	return out
}

func sameState(t *testing.T, got, want map[string]string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d docs, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s: doc %q differs:\n got %s\nwant %s", label, id, got[id], w)
		}
	}
}

// TestLegacyJournalOpensAndExtends: a JSON-journaled dir is refused,
// opens once upgraded, accepts binary-record writes, and replays on
// every reopen — across shard counts, since shard placement is
// re-derived from id hashes, not from the journal.
func TestLegacyJournalOpensAndExtends(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			docA := compatDoc(t, "alpha", 3)
			docB := compatDoc(t, "beta", 2)
			writeLegacyJournal(t, dir,
				legacyPutPayload(t, "alpha", docA, 0),
				legacyPutPayload(t, "doomed", docB, 0),
				legacyBatchPayload(t, map[string]*prov.Document{"beta": docB, "gamma": compatDoc(t, "gamma", 1)}),
				legacyDeletePayload(t, "doomed"),
			)

			s := refusedThenUpgraded(t, dir, Durability{Shards: shards, SnapshotEvery: -1})
			sameState(t, snapshotJSON(t, s), stateOf(t, map[string]*prov.Document{
				"alpha": docA, "beta": docB, "gamma": compatDoc(t, "gamma", 1),
			}), "upgraded legacy journal")
			// Extend with binary records: puts, a batch, a delete.
			if err := s.Put("delta", compatDoc(t, "delta", 2)); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch(map[string]*prov.Document{
				"eps":  compatDoc(t, "eps", 1),
				"zeta": compatDoc(t, "zeta", 1),
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("gamma"); err != nil {
				t.Fatal(err)
			}
			want := snapshotJSON(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: replay crosses from the upgrade's snapshot into
			// the records written after it.
			s2, err := Open(dir, Durability{Shards: shards, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("reopen upgraded dir: %v", err)
			}
			defer s2.Close()
			sameState(t, snapshotJSON(t, s2), want, "upgraded-journal reopen")
		})
	}
}

// TestJSONSnapshotBlobsRewrittenInBinary: a directory whose snapshot
// holds its documents as JSON — the legacy JSON snapshot, or a binary
// envelope around '{' blobs — is refused, and once upgraded its
// snapshot holds binary blobs, which every later checkpoint copies.
func TestJSONSnapshotBlobsRewrittenInBinary(t *testing.T) {
	const n = 5
	docs := map[string]json.RawMessage{}
	want := map[string]*prov.Document{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%d", i)
		want[id] = compatDoc(t, id, 2)
		docs[id] = mustJSON(t, want[id])
	}
	legacy, err := json.Marshal(storeSnapshot{Docs: docs, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	envelope := binary.AppendUvarint([]byte{recBinaryTag, 1}, n)
	for id, raw := range docs {
		envelope = appendBlob(appendLenString(envelope, id), raw)
	}

	for name, payload := range map[string][]byte{"legacy JSON snapshot": legacy, "binary envelope of JSON blobs": envelope} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := wal.WriteSnapshotTo(dir, 9, payload); err != nil {
				t.Fatal(err)
			}
			s := refusedThenUpgraded(t, dir, Durability{SnapshotEvery: -1, Shards: 4})
			sameState(t, snapshotJSON(t, s), stateOf(t, want), "upgraded snapshot")
			if docs, _ := checkpointCost(t, s); docs != n {
				t.Fatalf("first checkpoint stored %d documents, want %d", docs, n)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			m, err := decodeSnapshot(snapshotOnDisk(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range m.ops {
				if blob := opBlob(&m, i); len(blob) == 0 || blob[0] != prov.BinaryDocTag {
					t.Fatalf("the checkpoint stored %q as %.1q..., want a binary blob", op.ID, blob)
				}
			}

			s = openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: 4})
			sameState(t, snapshotJSON(t, s), stateOf(t, want), "reopen on the checkpoint")
			if docs, _ := checkpointCost(t, s); docs != n {
				t.Fatalf("checkpoint after the restart stored %d documents, want %d", docs, n)
			}
		})
	}
}

// TestMixedFormatReplication: a follower applies the binary records a
// primary ships and refuses a JSON record, as an earlier build's
// primary shipped it, with ErrLegacyFormat — staging nothing, so the
// records before it stay applied and its local journal stays at the
// replication cursor — whatever its shard count.
func TestMixedFormatReplication(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f, err := Open(t.TempDir(), Durability{Follower: true, Shards: shards, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			docB := compatDoc(t, "beta", 2)
			binPut := encodeRecord([]Op{putOp("beta", docB)}, 0, "")
			binBatch := encodeRecord([]Op{putOp("gamma", compatDoc(t, "gamma", 1)), {ID: "alpha"}}, 0, "")

			var last wal.Ticket
			for _, rec := range []wal.Record{{Seq: 1, Payload: binPut}, {Seq: 2, Payload: binBatch}} {
				tk, ok, err := f.ApplyReplicated(rec)
				if err != nil || !ok {
					t.Fatalf("apply seq %d: applied %v, %v", rec.Seq, ok, err)
				}
				last = tk
			}
			for _, payload := range [][]byte{
				legacyPutPayload(t, "alpha", compatDoc(t, "alpha", 2), 0),
				legacyBatchPayload(t, map[string]*prov.Document{"delta": compatDoc(t, "delta", 1)}),
			} {
				_, ok, err := f.ApplyReplicated(wal.Record{Seq: 3, Payload: payload})
				if !errors.Is(err, ErrLegacyFormat) || ok {
					t.Fatalf("JSON record: applied %v, %v; want ErrLegacyFormat", ok, err)
				}
				if f.AppliedSeq() != 2 || f.Log().NextSeq() != 3 {
					t.Fatalf("after a refused record: applied seq %d, next journal seq %d; want 2, 3", f.AppliedSeq(), f.Log().NextSeq())
				}
			}
			if err := last.Commit(); err != nil {
				t.Fatal(err)
			}
			sameState(t, snapshotJSON(t, f), stateOf(t, map[string]*prov.Document{
				"beta": docB, "gamma": compatDoc(t, "gamma", 1),
			}), "mixed replication")
		})
	}
}

// TestMixedJournalTornTail: a torn frame at the end of a mixed-format
// segment — JSON records, then the binary record a later build
// appended — truncates to the last durable record, and the upgrade
// converts every record before it.
func TestMixedJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	docA, docB := compatDoc(t, "alpha", 2), compatDoc(t, "beta", 1)
	writeLegacyJournal(t, dir,
		legacyPutPayload(t, "alpha", docA, 0),
		encodeRecord([]Op{putOp("beta", docB)}, 0, ""),
	)

	// Tear the tail: append half a frame's worth of garbage to the
	// newest segment, as a crash mid-write would.
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found (err %v)", err)
	}
	fh, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte{0x13, 0x37, 0x00, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	s := refusedThenUpgraded(t, dir, Durability{SnapshotEvery: -1})
	sameState(t, snapshotJSON(t, s), stateOf(t, map[string]*prov.Document{"alpha": docA, "beta": docB}), "torn-tail upgrade")
}
