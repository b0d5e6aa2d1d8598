package provstore

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wal"
)

// Path equivalence. The same op script must leave the same store
// whichever caller of the mutation pipeline runs it: Apply on an
// in-memory store, Apply on a durable primary, ApplyReplicated on a
// follower fed the primary's journal, and recovery replay of that
// journal — under every shard count, since placement is re-derived from
// id hashes everywhere — and however many checkpoints were taken on the
// way: a snapshot is assembled from blobs the entries kept from earlier
// ones, so each must hold exactly the store it was taken of.

// equivStep is one mutation of the script. lenient marks a record that
// only replay and replication accept (it deletes a missing id); the
// local API refuses it, so the in-memory store and the primary run it
// through the pipeline the way such a record reaches them.
type equivStep struct {
	ops     []Op
	lenient bool
}

func equivScript(t *testing.T) []equivStep {
	put := func(id, version string) Op { return putOp(id, testDoc(t, version)) }
	return []equivStep{
		{ops: []Op{put("a", "a-v1")}},
		{ops: []Op{put("b", "b-v1")}},
		{ops: []Op{put("a", "a-v2")}},                              // replace
		{ops: []Op{{ID: "b"}}},                                     // delete
		{ops: []Op{put("e", "e-v1"), {ID: "a"}, put("c", "c-v1")}}, // mixed batch
		{ops: []Op{put("a", "a-v3")}},                              // re-create
		{ops: []Op{{ID: "ghost"}, put("f", "f-v1"), put("c", "c-v2")}, lenient: true},
		{ops: []Op{{ID: "e"}, {ID: "f"}}}, // delete batch
	}
}

// runEquivScript drives the script through s's local write path,
// calling between (when non-nil) between every two steps.
func runEquivScript(t *testing.T, s *Store, script []equivStep, between func()) {
	t.Helper()
	ctx := context.Background()
	for i, st := range script {
		if i > 0 && between != nil {
			between()
		}
		ops := append([]Op(nil), st.ops...) // Apply sorts in place
		if !st.lenient {
			if err := s.Apply(ctx, ops); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			continue
		}
		if err := s.Apply(ctx, append([]Op(nil), ops...)); err == nil {
			t.Fatalf("step %d: local Apply accepted a delete of a missing id", i)
		}
		m := mutation{ops: ops, lenient: true} // apply journals it on a primary
		tk, err := s.apply(ctx, &m)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if m.record != nil {
			if err := tk.Commit(); err != nil {
				t.Fatalf("step %d: commit: %v", i, err)
			}
		}
	}
}

// equivState is everything the four paths must agree on.
type equivState struct {
	IDs     []string
	Docs    map[string]string   // canonical JSON per document
	Lineage map[string][]string // "<doc> <node> <direction>" -> reachable names
	Version uint64              // store-wide version
	Seqs    map[string]uint64   // the seq every entry was installed under
}

func captureEquivState(t *testing.T, s *Store) equivState {
	t.Helper()
	st := equivState{IDs: s.List(), Docs: snapshotJSON(t, s), Lineage: map[string][]string{}, Version: s.Version(), Seqs: entrySeqs(s)}
	for _, id := range st.IDs {
		d, _ := s.Get(id)
		for _, node := range append(d.EntityIDs(), d.ActivityIDs()...) {
			for _, dir := range []LineageDirection{Ancestors, Descendants} {
				got, err := s.Lineage(id, node, dir, 0)
				if err != nil {
					t.Fatalf("lineage %s %s %s: %v", id, node, dir, err)
				}
				names := make([]string, len(got))
				for i, q := range got {
					names[i] = string(q)
				}
				st.Lineage[fmt.Sprintf("%s %s %s", id, node, dir)] = names
			}
		}
	}
	return st
}

// checkpointAndVerify checkpoints s and checks that the snapshot it
// wrote holds the store as it is now: no document missing, none that
// was deleted, none in a version since replaced.
func checkpointAndVerify(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	payload, seq, ok, err := s.wal.LatestSnapshot()
	if err != nil || !ok || seq != s.AppliedSeq() {
		t.Fatalf("latest snapshot: seq %d ok=%v err=%v, want seq %d", seq, ok, err, s.AppliedSeq())
	}
	m, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for i, op := range m.ops {
		got[op.ID] = string(mustJSON(t, opDoc(&m, i)))
	}
	sameState(t, got, snapshotJSON(t, s), fmt.Sprintf("snapshot at seq %d", seq))
}

func TestMutationPathsEquivalent(t *testing.T) {
	script := equivScript(t)
	steps := uint64(len(script))
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// (a) in-memory: the reference.
			mem := NewSharded(shards)
			runEquivScript(t, mem, script, nil)
			want := captureEquivState(t, mem)
			if !reflect.DeepEqual(want.IDs, []string{"a", "c"}) {
				t.Fatalf("script left %v, want [a c]", want.IDs)
			}
			if mem.AppliedSeq() != 0 {
				t.Fatalf("in-memory AppliedSeq = %d, want 0 (no journal)", mem.AppliedSeq())
			}
			checkState := func(label string, s *Store, want equivState) {
				t.Helper()
				if got := captureEquivState(t, s); !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverges from the in-memory store:\n got %+v\nwant %+v", label, got, want)
				}
				if s.AppliedSeq() != steps {
					t.Errorf("%s: AppliedSeq = %d, want %d (one record per step)", label, s.AppliedSeq(), steps)
				}
			}
			check := func(label string, s *Store) { t.Helper(); checkState(label, s, want) }

			// (b) durable primary.
			dir := t.TempDir()
			primary := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1, Shards: shards})
			runEquivScript(t, primary, script, nil)
			check("primary", primary)
			if err := primary.Close(); err != nil {
				t.Fatal(err)
			}

			// (b') the same, with a checkpoint between every two steps.
			ckptDir := t.TempDir()
			ckpt := openTemp(t, ckptDir, Durability{Fsync: true, SnapshotEvery: -1, Shards: shards})
			runEquivScript(t, ckpt, script, func() { checkpointAndVerify(t, ckpt) })
			check("checkpointing primary", ckpt)
			if err := ckpt.Close(); err != nil {
				t.Fatal(err)
			}

			// (c) follower fed the primary's journal.
			l, rec, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if uint64(len(rec.Records)) != steps {
				t.Fatalf("primary journaled %d records, want %d", len(rec.Records), steps)
			}
			// It checkpoints between every two records, too.
			followerDir := t.TempDir()
			follower := openTemp(t, followerDir, Durability{Follower: true, SnapshotEvery: -1, Shards: shards})
			for i, r := range rec.Records {
				if i > 0 {
					checkpointAndVerify(t, follower)
				}
				tk, ok, err := follower.ApplyReplicated(r)
				if err != nil || !ok {
					t.Fatalf("replicate seq %d: ok=%v err=%v", r.Seq, ok, err)
				}
				if err := tk.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			check("follower", follower)
			if err := follower.Close(); err != nil {
				t.Fatal(err)
			}

			// (d) recovery, under every shard count: replay of the whole
			// journal, and the last snapshot plus the one record after it.
			// A document recovered from a snapshot carries the snapshot's
			// sequence where that is newer than its own.
			snapSeq := steps - 1
			fromSnapshot := want
			fromSnapshot.Seqs = make(map[string]uint64)
			for id, seq := range want.Seqs {
				fromSnapshot.Seqs[id] = max(seq, snapSeq)
			}
			for _, reopenShards := range []int{1, 4, 16} {
				re := openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: reopenShards})
				check(fmt.Sprintf("reopen under %d shards", reopenShards), re)
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				for label, d := range map[string]string{"checkpointing primary": ckptDir, "follower": followerDir} {
					re := openTemp(t, d, Durability{SnapshotEvery: -1, Shards: reopenShards})
					checkState(fmt.Sprintf("%s reopened under %d shards", label, reopenShards), re, fromSnapshot)
					if err := re.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
