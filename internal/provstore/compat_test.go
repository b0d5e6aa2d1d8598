package provstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/wal"
)

// Cross-format compatibility: data dirs journaled by pre-codec builds
// hold JSON journalOp records; this build appends binary records behind
// the same frame format. Recovery, snapshots, and replication must
// treat the two interchangeably — record by record, within one segment.

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

// TestLegacyJournalOpensAndExtends: a JSON-journaled dir must open
// cleanly, accept binary-record writes, and replay the mixed segment on
// every reopen — across shard counts, since shard placement is re-derived
// from id hashes, not from the journal.
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

			s, err := Open(dir, Durability{Shards: shards, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("open legacy dir: %v", err)
			}
			if s.Count() != 3 {
				t.Fatalf("legacy replay recovered %d docs, want 3", s.Count())
			}
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

			// Reopen: replay now crosses a JSON->binary format boundary
			// mid-segment.
			s2, err := Open(dir, Durability{Shards: shards, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("reopen mixed dir: %v", err)
			}
			defer s2.Close()
			sameState(t, snapshotJSON(t, s2), want, "mixed-journal reopen")
		})
	}
}

// TestJSONSnapshotBlobsRewrittenInBinary: a directory whose snapshot
// holds its documents as JSON — the legacy JSON snapshot, or a binary
// envelope around '{' blobs — opens, recovery encodes every document
// once (a JSON blob is never kept), and its first checkpoint writes
// binary blobs, which the checkpoint after a restart copies.
func TestJSONSnapshotBlobsRewrittenInBinary(t *testing.T) {
	const n = 5
	docs := map[string]json.RawMessage{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%d", i)
		docs[id] = mustJSON(t, compatDoc(t, id, 2))
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
			s := openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: 4})
			want := snapshotJSON(t, s)
			if len(want) != n {
				t.Fatalf("recovered %d docs, want %d", len(want), n)
			}
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
				if blob := m.blobs[i]; len(blob) == 0 || blob[0] != prov.BinaryDocTag {
					t.Fatalf("the checkpoint stored %q as %.1q..., want a binary blob", op.ID, blob)
				}
			}

			s = openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: 4})
			sameState(t, snapshotJSON(t, s), want, "reopen on the rewritten snapshot")
			if docs, _ := checkpointCost(t, s); docs != n {
				t.Fatalf("checkpoint after the restart stored %d documents, want %d", docs, n)
			}
		})
	}
}

// TestMixedFormatReplication: a follower must converge byte-identically
// when the replicated stream interleaves JSON and binary records —
// the cross-version primary/follower pair — whatever its shard count.
func TestMixedFormatReplication(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f, err := Open(t.TempDir(), Durability{Follower: true, Shards: shards, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			docA := compatDoc(t, "alpha", 2)
			docB := compatDoc(t, "beta", 2)
			binPut := encodeRecord([]Op{{ID: "beta", Doc: docB}}, 0, "")
			binBatch := encodeRecord([]Op{{ID: "gamma", Doc: compatDoc(t, "gamma", 1)}, {ID: "alpha"}}, 0, "")

			records := []wal.Record{
				{Seq: 1, Payload: legacyPutPayload(t, "alpha", docA, 0)}, // old primary
				{Seq: 2, Payload: binPut},                                // new primary
				{Seq: 3, Payload: legacyBatchPayload(t, map[string]*prov.Document{"delta": compatDoc(t, "delta", 1)})},
				{Seq: 4, Payload: binBatch},
			}
			var last wal.Ticket
			for _, rec := range records {
				tk, ok, err := f.ApplyReplicated(rec)
				if err != nil {
					t.Fatalf("apply seq %d: %v", rec.Seq, err)
				}
				if !ok {
					t.Fatalf("record seq %d skipped", rec.Seq)
				}
				last = tk
			}
			if err := last.Commit(); err != nil {
				t.Fatal(err)
			}

			// Expected state built through the public API.
			ref := New()
			for id, d := range map[string]*prov.Document{
				"beta": docB, "gamma": compatDoc(t, "gamma", 1), "delta": compatDoc(t, "delta", 1),
			} {
				if err := ref.Put(id, d); err != nil {
					t.Fatal(err)
				}
			}
			sameState(t, snapshotJSON(t, f), snapshotJSON(t, ref), "mixed replication")
		})
	}
}

// TestMixedJournalTornTail: a torn frame at the end of a mixed-format
// segment must truncate to the last durable record, never corrupt the
// decoded state before it.
func TestMixedJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	writeLegacyJournal(t, dir, legacyPutPayload(t, "alpha", compatDoc(t, "alpha", 2), 0))

	s, err := Open(dir, Durability{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("beta", compatDoc(t, "beta", 1)); err != nil {
		t.Fatal(err)
	}
	want := snapshotJSON(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

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

	s2, err := Open(dir, Durability{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	sameState(t, snapshotJSON(t, s2), want, "torn-tail recovery")
}
