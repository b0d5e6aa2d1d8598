package provstore

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/prov"
	"repro/internal/wal"
)

// TestShardLayoutInvariants: counts round to powers of two and routing
// is stable and in range.
func TestShardLayoutInvariants(t *testing.T) {
	for n, want := range map[int]int{-1: roundPow2(defaultShardCount()), 1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16} {
		if n == -1 {
			continue // default depends on GOMAXPROCS; checked below
		}
		if got := NewSharded(n).ShardCount(); got != want {
			t.Errorf("NewSharded(%d).ShardCount() = %d, want %d", n, got, want)
		}
	}
	if got := NewSharded(1 << 12).ShardCount(); got != maxShards {
		t.Errorf("NewSharded(4096).ShardCount() = %d, want cap %d", got, maxShards)
	}
	s := New()
	if c := s.ShardCount(); c&(c-1) != 0 || c < 1 {
		t.Fatalf("default shard count %d is not a power of two", c)
	}
	for _, id := range []string{"", "a", "doc/with/slash", "sp ace", "Ünïcode"} {
		i := s.shardIndex(id)
		if int(i) >= s.ShardCount() {
			t.Fatalf("shardIndex(%q) = %d out of range", id, i)
		}
		if j := s.shardIndex(id); j != i {
			t.Fatalf("shardIndex(%q) unstable: %d != %d", id, i, j)
		}
	}
}

// TestFanOutDeterminism: List and FindByType return identical, sorted
// results for every shard count — the fan-out merge must not leak shard
// layout into observable ordering.
func TestFanOutDeterminism(t *testing.T) {
	counts := []int{1, 2, 8, 32}
	var wantList []string
	var wantHits []SearchResult
	for i, n := range counts {
		s := NewSharded(n)
		for d := 0; d < 40; d++ {
			id := fmt.Sprintf("doc-%02d", d)
			if err := s.Put(id, testDoc(t, id)); err != nil {
				t.Fatal(err)
			}
		}
		list := s.List()
		hits := s.FindByType("provml:Model")
		if i == 0 {
			wantList, wantHits = list, hits
			if len(wantList) != 40 || len(wantHits) != 40 {
				t.Fatalf("fixture: list=%d hits=%d", len(wantList), len(wantHits))
			}
			continue
		}
		if !reflect.DeepEqual(list, wantList) {
			t.Errorf("shards=%d: List diverges from single-shard result", n)
		}
		if !reflect.DeepEqual(hits, wantHits) {
			t.Errorf("shards=%d: FindByType diverges from single-shard result", n)
		}
		// Repeated calls must be byte-for-byte identical.
		if !reflect.DeepEqual(s.FindByType("provml:Model"), hits) {
			t.Errorf("shards=%d: FindByType not deterministic across calls", n)
		}
	}
}

// TestSearchOrderIgnoresShardCount: a node declared in two classes is
// two results that tie on (Doc, Node). Type and attribute search return
// them in (Doc, Node, Class) order, the same list for every shard
// count; an unstable sort on (Doc, Node) alone let the shard layout
// order the ties.
func TestSearchOrderIgnoresShardCount(t *testing.T) {
	var want map[string][]SearchResult
	for _, n := range []int{1, 2, 4, 16, 64} {
		s := NewSharded(n)
		for d := range 12 {
			doc := prov.NewDocument()
			for i := range 3 {
				q := prov.QName(fmt.Sprintf("ex:n%d", i))
				doc.AddEntity(q, prov.Attrs{"prov:type": prov.Str("T"), "ex:k": prov.Int(1)})
				doc.AddActivity(q, prov.Attrs{"prov:type": prov.Str("T"), "ex:k": prov.Int(1)})
			}
			if err := s.Put(fmt.Sprintf("doc-%02d", d), doc); err != nil {
				t.Fatal(err)
			}
		}
		got := map[string][]SearchResult{"FindByType": s.FindByType("T"), "FindByAttr": s.FindByAttr("ex:k", 1)}
		for name, hits := range got {
			if len(hits) != 12*3*2 {
				t.Fatalf("shards=%d: %s returns %d results, want %d", n, name, len(hits), 12*3*2)
			}
			if !slices.IsSortedFunc(hits, func(a, b SearchResult) int {
				return cmp.Or(strings.Compare(a.Doc, b.Doc), strings.Compare(string(a.Node), string(b.Node)), strings.Compare(a.Class, b.Class))
			}) {
				t.Errorf("shards=%d: %s is not in (Doc, Node, Class) order: %v", n, name, hits)
			}
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: searches %v, with one shard %v", n, got, want)
		}
	}
}

// TestConcurrentMixedWorkload runs parallel Put/Delete/Get/Lineage/
// Search/CrossDocLineage across shards. Run under -race: the point is
// that per-shard locks plus the fan-out paths are free of data races
// and never observe torn state.
func TestConcurrentMixedWorkload(t *testing.T) {
	s := NewSharded(8)
	// A stable population the readers can always rely on.
	const stable = 16
	for i := 0; i < stable; i++ {
		id := fmt.Sprintf("stable-%02d", i)
		if err := s.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0: // churn: put then delete own keyspace
					id := fmt.Sprintf("churn-w%d-%d", w, i)
					if err := s.Put(id, testDoc(t, id)); err != nil {
						t.Error(err)
						return
					}
					if i%2 == 1 {
						if err := s.Delete(id); err != nil {
							t.Error(err)
							return
						}
					}
				case 1: // lineage over the stable population
					id := fmt.Sprintf("stable-%02d", i%stable)
					node := prov.NewQName("ex", "model-"+id)
					got, err := s.Lineage(id, node, Ancestors, 0)
					if err != nil || len(got) != 2 {
						t.Errorf("lineage %s: %v %v", id, got, err)
						return
					}
				case 2: // cross-shard search
					hits := s.FindByType("provml:Model")
					if len(hits) < stable {
						t.Errorf("search lost stable docs: %d < %d", len(hits), stable)
						return
					}
					_ = s.List()
					_ = s.Count()
					_ = s.Stats()
				case 3: // get + cross-document traversal
					id := fmt.Sprintf("stable-%02d", i%stable)
					if _, ok := s.Get(id); !ok {
						t.Errorf("stable doc %s vanished", id)
						return
					}
					if _, err := s.CrossDocLineage(prov.NewQName("ex", "model-"+id), Ancestors, 0); err != nil {
						t.Errorf("crossdoc %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := s.Count(); got < stable {
		t.Fatalf("Count = %d, want >= %d", got, stable)
	}
	if st := s.Stats(); st.Shards != 8 {
		t.Fatalf("Stats.Shards = %d, want 8", st.Shards)
	}
}

// TestRecoveryAcrossShardCounts: a journaled data dir written under one
// shard count must open correctly under any other — placement is
// re-derived from document ids, the WAL keeps global sequencing.
func TestRecoveryAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{Shards: 4, SnapshotEvery: 5})
	const n = 12
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%02d", i)
		if err := s.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("doc-03"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // force a snapshot stamped with shards=4
		t.Fatal(err)
	}
	if err := s.Put("post-snap", testDoc(t, "post-snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 16} {
		s2, err := Open(dir, Durability{Shards: shards})
		if err != nil {
			t.Fatalf("reopen with %d shards: %v", shards, err)
		}
		if got := s2.Count(); got != n { // n-1 survivors + post-snap
			t.Fatalf("shards=%d: recovered %d docs, want %d", shards, got, n)
		}
		if _, ok := s2.Get("doc-03"); ok {
			t.Fatalf("shards=%d: deleted doc resurrected", shards)
		}
		// The graph projection must be queryable on whichever shard the
		// documents landed.
		got, err := s2.Lineage("doc-07", prov.NewQName("ex", "model-doc-07"), Ancestors, 0)
		if err != nil || len(got) != 2 {
			t.Fatalf("shards=%d: lineage after recovery: %v %v", shards, got, err)
		}
		if hits := s2.FindByType("provml:Model"); len(hits) != n {
			t.Fatalf("shards=%d: FindByType = %d hits, want %d", shards, len(hits), n)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyJournalWithoutShardField: a journal from before sharding
// (records carry no shard field at all) is refused, and once upgraded
// opens into a sharded store.
func TestLegacyJournalWithoutShardField(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq() != 0 {
		t.Fatalf("fresh dir has history: %d", rec.LastSeq())
	}
	raw, err := testDoc(t, "legacy").MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		payload := fmt.Sprintf(`{"op":"put","id":"legacy-%d","doc":%s}`, i, raw)
		if _, err := l.Append([]byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append([]byte(`{"op":"delete","id":"legacy-1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s := refusedThenUpgraded(t, dir, Durability{Shards: 8})
	if got := s.Count(); got != 2 {
		t.Fatalf("recovered %d docs from legacy journal, want 2", got)
	}
	for _, id := range []string{"legacy-0", "legacy-2"} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("legacy doc %s missing", id)
		}
	}
	// And new mutations journal with shard hints after the upgrade.
	if err := s.Put("modern", testDoc(t, "modern")); err != nil {
		t.Fatal(err)
	}
}
