package provstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/prov"
)

// TestLineageSeesOneVersion reads the lineage of one document while a
// writer alternates it between a deep and a shallow version. The chains
// share their element names, so the shallow lineage is a strict subset
// of the deep one and a read that mixed the two would be neither. Every
// read must equal one version's lineage exactly. Run with -race.
func TestLineageSeesOneVersion(t *testing.T) {
	const deep, shallow = 256, 12
	versions := [2]*prov.Document{chainDoc(deep), chainDoc(shallow)}
	start := prov.QName("ex:e0")
	var want [2][]prov.QName
	for i, d := range versions {
		ix, _, err := prov.IndexBinary(prov.AppendBinary(nil, d))
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = ix.Reach(start, prov.Reverse, 0)
	}

	s := NewSharded(1)
	if err := s.Put("doc", versions[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := s.Lineage("doc", start, Descendants, 0)
				if err != nil {
					t.Errorf("lineage: %v", err)
					return
				}
				if !slices.Equal(got, want[0]) && !slices.Equal(got, want[1]) {
					t.Errorf("lineage of %d nodes belongs to neither version (%d and %d nodes)",
						len(got), len(want[0]), len(want[1]))
					return
				}
			}
		}()
	}
	for i := 1; i <= 400; i++ {
		if err := s.Put("doc", versions[i%2]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestLineageCostIgnoresHistory: what one Lineage call on a small
// document allocates, issued right after a write, does not depend on
// how many versions of another document the shard has seen.
func TestLineageCostIgnoresHistory(t *testing.T) {
	leaf := prov.QName("ex:e11")
	other := chainDoc(30)
	lineageBytes := func(s *Store) uint64 {
		best := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ { // the minimum sheds anything the runtime allocated alongside
			if err := s.Put("other", other); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			got, err := s.Lineage("small", leaf, Ancestors, 0)
			runtime.ReadMemStats(&after)
			if err != nil || len(got) != 23 {
				t.Fatalf("lineage = %d nodes, %v", len(got), err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}

	s := NewSharded(1)
	if err := s.Put("small", chainDoc(12)); err != nil {
		t.Fatal(err)
	}
	fresh := lineageBytes(s)
	for i := 0; i < 10000; i++ {
		if err := s.Put("other", other); err != nil {
			t.Fatal(err)
		}
	}
	if aged := lineageBytes(s); aged != fresh {
		t.Errorf("one Lineage call allocates %d B after 10000 replacements of another document, %d B on a fresh store", aged, fresh)
	}
}

// reach is the oracle: a breadth-first search over d.Relations that
// follows each relation from subject to object when forward and from
// object to subject when backward. It returns every element within
// depth hops of start (depth <= 0: unbounded), start excluded, sorted,
// and never looks at prov.Index.
func reach(d *prov.Document, start prov.QName, forward, backward bool, depth int) []prov.QName {
	seen := map[prov.QName]bool{start: true}
	out := []prov.QName{}
	frontier := []prov.QName{start}
	for hop := 0; len(frontier) > 0 && (depth <= 0 || hop < depth); hop++ {
		var next []prov.QName
		for _, cur := range frontier {
			for _, r := range d.Relations {
				var n prov.QName
				switch {
				case forward && r.Subject == cur:
					n = r.Object
				case backward && r.Object == cur:
					n = r.Subject
				default:
					continue
				}
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		out = append(out, next...)
		frontier = next
	}
	slices.Sort(out)
	return out
}

// induced is the subgraph oracle: the elements of d that nodes names and
// the relations of d both of whose endpoints it names.
func induced(d *prov.Document, nodes []prov.QName) *prov.Document {
	sub := prov.NewDocument()
	for id, e := range d.Entities {
		if slices.Contains(nodes, id) {
			sub.AddEntity(id, e.Attrs)
		}
	}
	for id, a := range d.Activities {
		if slices.Contains(nodes, id) {
			na := sub.AddActivity(id, a.Attrs)
			na.StartTime, na.EndTime = a.StartTime, a.EndTime
		}
	}
	for id, g := range d.Agents {
		if slices.Contains(nodes, id) {
			sub.AddAgent(id, g.Attrs)
		}
	}
	for _, r := range d.Relations {
		if slices.Contains(nodes, r.Subject) && slices.Contains(nodes, r.Object) {
			sub.AddRelation(*r)
		}
	}
	return sub
}

// derivationDoc builds n entities (the last few never related to
// anything) and the given wasDerivedFrom edges between them, by index.
func derivationDoc(n int, edges [][2]int) *prov.Document {
	d := prov.NewDocument()
	name := func(i int) prov.QName { return prov.NewQName("ex", fmt.Sprintf("n%02d", i)) }
	for i := 0; i < n; i++ {
		d.AddEntity(name(i), nil)
	}
	for _, e := range edges {
		d.WasDerivedFrom(name(e[0]), name(e[1]))
	}
	return d
}

// TestIndexMatchesOracle compares Store.Lineage and Store.Subgraph
// with reach over the same document, for every element of documents
// covering chains, fan-in and fan-out, cycles, self-loops, isolated
// elements, repeated edges and all three element classes.
func TestIndexMatchesOracle(t *testing.T) {
	docs := map[string]*prov.Document{
		"training": trainingDoc(),
		"chain":    chainDoc(9),
		"fan":      derivationDoc(9, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}, {4, 5}, {4, 6}}),
		"cycles":   derivationDoc(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 3}, {3, 4}, {4, 2}}),
		"repeated": derivationDoc(5, [][2]int{{0, 1}, {0, 1}, {1, 2}, {1, 2}, {1, 2}, {2, 1}}),
		"isolated": derivationDoc(4, nil),
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 8; i++ {
		n := 2 + rng.Intn(24)
		edges := make([][2]int, rng.Intn(3*n))
		for j := range edges {
			edges[j] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		docs[fmt.Sprintf("random%d", i)] = derivationDoc(n+2, edges)
	}

	s := New()
	for id, d := range docs {
		if err := s.Put(id, d); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for id, d := range docs {
		elements := slices.Concat(d.EntityIDs(), d.ActivityIDs(), d.AgentIDs())
		n := len(elements)
		for _, start := range elements {
			for _, depth := range []int{0, 1, 2, n} {
				for _, dir := range []LineageDirection{Ancestors, Descendants} {
					got, err := s.Lineage(id, start, dir, depth)
					if err != nil {
						t.Fatalf("%s: lineage %s: %v", id, start, err)
					}
					if want := reach(d, start, dir == Ancestors, dir == Descendants, depth); got == nil || !slices.Equal(got, want) {
						t.Errorf("%s: %s of %s within %d = %v, the oracle says %v", id, dir, start, depth, got, want)
					}
				}
			}
			for _, hops := range []int{0, 1, 3} {
				got, err := s.Subgraph(id, start, hops)
				if err != nil {
					t.Fatalf("%s: subgraph %s: %v", id, start, err)
				}
				nodes := []prov.QName{start}
				if hops > 0 {
					nodes = append(nodes, reach(d, start, true, true, hops)...)
				}
				if want := induced(d, nodes); !got.Equal(want) {
					t.Errorf("%s: subgraph of %s within %d hops = %+v, the oracle says %+v", id, start, hops, got.Stats(), want.Stats())
				}
			}
		}
	}
}
