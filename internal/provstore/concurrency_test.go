package provstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/prov"
)

// chainDoc builds a linear used/wasGeneratedBy chain of the given depth.
func chainDoc(depth int) *prov.Document {
	d := prov.NewDocument()
	prev := prov.QName("")
	for i := 0; i < depth; i++ {
		e := prov.NewQName("ex", fmt.Sprintf("e%d", i))
		a := prov.NewQName("ex", fmt.Sprintf("a%d", i))
		d.AddEntity(e, nil)
		d.AddActivity(a, nil)
		if prev != "" {
			d.Used(a, prev, time.Time{})
		}
		d.WasGeneratedBy(e, a, time.Time{})
		prev = e
	}
	return d
}

// TestConcurrentPutAndLineage uploads documents from several writers
// while readers run lineage and subgraph queries over a stable document
// the whole time. Run with -race: it exercises unlocked traversal of
// the stable document's entry against entry swaps under the write lock.
func TestConcurrentPutAndLineage(t *testing.T) {
	s := New()
	const depth = 40
	if err := s.Put("stable", chainDoc(depth)); err != nil {
		t.Fatal(err)
	}
	leaf := prov.NewQName("ex", fmt.Sprintf("e%d", depth-1))

	const writers = 4
	const docsPerWriter = 15
	const readers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				id := fmt.Sprintf("doc_w%d_%d", w, i)
				if err := s.Put(id, chainDoc(10)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				anc, err := s.Lineage("stable", leaf, Ancestors, 0)
				if err != nil {
					t.Error(err)
					return
				}
				// The full chain below the leaf: every earlier entity and
				// every activity.
				if want := 2*depth - 1; len(anc) != want {
					t.Errorf("lineage = %d nodes, want %d", len(anc), want)
					return
				}
				if _, err := s.Subgraph("stable", leaf, 3); err != nil {
					t.Error(err)
					return
				}
				s.FindByType("nonexistent")
			}
		}()
	}
	wg.Wait()

	if got := s.Count(); got != 1+writers*docsPerWriter {
		t.Fatalf("Count = %d, want %d", got, 1+writers*docsPerWriter)
	}
	// Replaced documents must not leak graph nodes: re-put every doc and
	// check stats stay fixed.
	before := s.Stats()
	for w := 0; w < writers; w++ {
		for i := 0; i < docsPerWriter; i++ {
			id := fmt.Sprintf("doc_w%d_%d", w, i)
			if err := s.Put(id, chainDoc(10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := s.Stats()
	if before != after {
		t.Fatalf("re-put changed stats: %+v -> %+v", before, after)
	}
}
