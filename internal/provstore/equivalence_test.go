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
// id hashes everywhere.

// equivStep is one mutation of the script. lenient marks a record that
// only replay and replication accept (it deletes a missing id); the
// local API refuses it, so the in-memory store and the primary run it
// through the pipeline the way such a record reaches them.
type equivStep struct {
	ops     []Op
	lenient bool
}

func equivScript(t *testing.T) []equivStep {
	put := func(id, version string) Op { return Op{ID: id, Doc: testDoc(t, version)} }
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

// runEquivScript drives the script through s's local write path.
func runEquivScript(t *testing.T, s *Store, script []equivStep) {
	t.Helper()
	ctx := context.Background()
	for i, st := range script {
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
		m := mutation{ops: ops, lenient: true}
		if s.wal != nil {
			m.record = appendRecord(nil, ops, s.mask, "")
		}
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

func TestMutationPathsEquivalent(t *testing.T) {
	script := equivScript(t)
	steps := uint64(len(script))
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// (a) in-memory: the reference.
			mem := NewSharded(shards)
			runEquivScript(t, mem, script)
			want := captureEquivState(t, mem)
			if !reflect.DeepEqual(want.IDs, []string{"a", "c"}) {
				t.Fatalf("script left %v, want [a c]", want.IDs)
			}
			if mem.AppliedSeq() != 0 {
				t.Fatalf("in-memory AppliedSeq = %d, want 0 (no journal)", mem.AppliedSeq())
			}
			check := func(label string, s *Store) {
				t.Helper()
				if got := captureEquivState(t, s); !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverges from the in-memory store:\n got %+v\nwant %+v", label, got, want)
				}
				if s.AppliedSeq() != steps {
					t.Errorf("%s: AppliedSeq = %d, want %d (one record per step)", label, s.AppliedSeq(), steps)
				}
			}

			// (b) durable primary.
			dir := t.TempDir()
			primary := openTemp(t, dir, Durability{Fsync: true, SnapshotEvery: -1, Shards: shards})
			runEquivScript(t, primary, script)
			check("primary", primary)
			if err := primary.Close(); err != nil {
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
			follower := openTemp(t, t.TempDir(), Durability{Follower: true, SnapshotEvery: -1, Shards: shards})
			var last wal.Ticket
			for _, r := range rec.Records {
				tk, ok, err := follower.ApplyReplicated(r)
				if err != nil || !ok {
					t.Fatalf("replicate seq %d: ok=%v err=%v", r.Seq, ok, err)
				}
				last = tk
			}
			if err := last.Commit(); err != nil {
				t.Fatal(err)
			}
			check("follower", follower)

			// (d) recovery replay, under every shard count.
			for _, reopenShards := range []int{1, 4, 16} {
				re := openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: reopenShards})
				check(fmt.Sprintf("reopen under %d shards", reopenShards), re)
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
