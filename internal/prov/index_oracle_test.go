package prov

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// indexBuild is what NewIndex needs only while it builds: the node
// names, a name -> id map that resolves relation endpoints with one
// probe each, and the resolved edges. It is pooled, and emptied before
// it goes back, so a pooled one pins no document.
type indexBuild struct {
	ids   map[QName]int32
	names []QName
	edges []edge
}

var indexBuilds = sync.Pool{New: func() any { return &indexBuild{ids: map[QName]int32{}} }}

// NewIndex indexes a decoded document: the builder IndexBinary
// replaced, kept as its differential oracle. The index keeps no
// reference to d, except for the relation Dangling returns.
func NewIndex(d *Document) *Index {
	b := indexBuilds.Get().(*indexBuild)
	defer b.release()
	for q := range d.Entities {
		b.names = append(b.names, q)
	}
	for q := range d.Activities {
		b.names = append(b.names, q)
	}
	for q := range d.Agents {
		b.names = append(b.names, q)
	}
	b.number()

	var dangling *Relation
	b.edges = slices.Grow(b.edges, len(d.Relations))[:len(d.Relations)]
	// resolve maps every relation to node ids and appends the endpoints
	// that are not nodes yet to b.names.
	resolve := func() {
		for i, r := range d.Relations {
			from, ok1 := b.ids[r.Subject]
			to, ok2 := b.ids[r.Object]
			if !ok1 {
				b.names = append(b.names, r.Subject)
			}
			if !ok2 {
				b.names = append(b.names, r.Object)
			}
			if !(ok1 && ok2) && dangling == nil {
				dangling = r
			}
			b.edges[i] = edge{from, to}
		}
	}
	if resolve(); dangling != nil {
		b.number()
		resolve()
	}

	size := 0
	for _, q := range b.names {
		size += len(q)
	}
	ix := newIndexArrays(len(b.names), len(b.edges))
	ix.dangling = dangling
	var arena strings.Builder
	arena.Grow(size)
	for i, q := range b.names {
		arena.WriteString(string(q))
		ix.offs[i+1] = int32(arena.Len())
	}
	ix.names = arena.String()
	ix.setRows(b.edges)
	return ix
}

// number sorts and deduplicates names and assigns ids by position.
func (b *indexBuild) number() {
	slices.Sort(b.names)
	b.names = slices.Compact(b.names)
	for i, q := range b.names {
		b.ids[q] = int32(i)
	}
}

// release empties b — the names it drops are the document's — and
// pools it.
func (b *indexBuild) release() {
	clear(b.ids)
	clear(b.names)
	b.names = b.names[:0]
	b.edges = b.edges[:0]
	indexBuilds.Put(b)
}

// mapIndex is the oracle for Index: the index as it was before its
// names became one arena — a sorted []QName plus a name -> id map kept
// for the index's lifetime, endpoints resolved through the map.
type mapIndex struct {
	ids      map[QName]int32
	names    []QName
	fwd      csrRows
	rev      csrRows
	dangling *Relation
}

func newMapIndex(d *Document) *mapIndex {
	n := len(d.Entities) + len(d.Activities) + len(d.Agents)
	ix := &mapIndex{ids: make(map[QName]int32, n), names: make([]QName, 0, n)}
	for q := range d.Entities {
		ix.names = append(ix.names, q)
	}
	for q := range d.Activities {
		ix.names = append(ix.names, q)
	}
	for q := range d.Agents {
		ix.names = append(ix.names, q)
	}
	ix.number()

	edges := make([]edge, len(d.Relations))
	resolve := func() (missing []QName) {
		for i, r := range d.Relations {
			from, ok1 := ix.ids[r.Subject]
			to, ok2 := ix.ids[r.Object]
			if !ok1 {
				missing = append(missing, r.Subject)
			}
			if !ok2 {
				missing = append(missing, r.Object)
			}
			if !(ok1 && ok2) && ix.dangling == nil {
				ix.dangling = r
			}
			edges[i] = edge{from, to}
		}
		return missing
	}
	if missing := resolve(); len(missing) > 0 {
		ix.names = append(ix.names, missing...)
		ix.number()
		resolve()
	}

	n = len(ix.names)
	build := func(reverse bool) csrRows {
		rows := csrRows{rowStart: make([]int32, n+1), targets: make([]int32, len(edges))}
		for _, e := range edges {
			from := e.from
			if reverse {
				from = e.to
			}
			rows.rowStart[from+1]++
		}
		for i := 0; i < n; i++ {
			rows.rowStart[i+1] += rows.rowStart[i]
		}
		fill := make([]int32, n)
		for _, e := range edges {
			from, to := e.from, e.to
			if reverse {
				from, to = to, from
			}
			rows.targets[rows.rowStart[from]+fill[from]] = to
			fill[from]++
		}
		for i := int32(0); i < int32(n); i++ {
			slices.Sort(rows.row(i))
		}
		return rows
	}
	ix.fwd = build(false)
	ix.rev = build(true)
	return ix
}

func (ix *mapIndex) number() {
	slices.Sort(ix.names)
	ix.names = slices.Compact(ix.names)
	for i, q := range ix.names {
		ix.ids[q] = int32(i)
	}
}

func (ix *mapIndex) Has(q QName) bool {
	_, ok := ix.ids[q]
	return ok
}

func (ix *mapIndex) Reach(start QName, dir Direction, maxDepth int) (reach []QName, ok bool) {
	s, ok := ix.ids[start]
	if !ok {
		return nil, false
	}
	visited := make([]bool, len(ix.names))
	visited[s] = true
	queue := []int32{s}
	head, depth, levelEnd := 0, 0, 1
	for head < len(queue) {
		if head == levelEnd {
			depth++
			levelEnd = len(queue)
		}
		if maxDepth > 0 && depth >= maxDepth {
			break
		}
		cur := queue[head]
		head++
		if dir != Reverse {
			queue = appendUnvisited(queue, visited, ix.fwd.row(cur))
		}
		if dir != Forward {
			queue = appendUnvisited(queue, visited, ix.rev.row(cur))
		}
	}
	found := queue[1:]
	slices.Sort(found)
	reach = make([]QName, len(found))
	for i, id := range found {
		reach[i] = ix.names[id]
	}
	return reach, true
}

// oracleNames are the names the randomized documents draw from: names
// that are prefixes of one another, names that differ only after the
// colon, names that differ only before it, and the empty name.
var oracleNames = []QName{
	"", "ex:", "ex:a", "ex:a0", "ex:a00", "ex:a1", "ex:ab", "ex:b",
	"ex:bα", "ex:bβ", "e:xa", "exa:", "ex2:a", "ex:A", "ex:a:b",
	"provml:Model", "provml:Model0", "x:e", "x:\u00e9", "x:e\u0301",
}

// randomOracleDoc declares a random subset of oracleNames, some in two
// classes, and relates random pairs of oracleNames, so that some
// endpoints dangle unless undeclared names are left out.
func randomOracleDoc(rng *rand.Rand, dangling bool) *Document {
	d := NewDocument()
	declared := map[QName]bool{}
	for _, q := range oracleNames {
		if rng.Intn(3) == 0 {
			continue
		}
		declared[q] = true
		switch rng.Intn(4) {
		case 0:
			d.AddEntity(q, nil)
		case 1:
			d.AddActivity(q, nil)
		case 2:
			d.AddAgent(q, nil)
		default:
			d.AddEntity(q, nil)
			d.AddAgent(q, nil)
		}
	}
	pick := func() QName {
		for {
			q := oracleNames[rng.Intn(len(oracleNames))]
			if dangling || declared[q] {
				return q
			}
		}
	}
	if len(declared) == 0 && !dangling {
		return d
	}
	for i, n := 0, rng.Intn(3*len(oracleNames)); i < n; i++ {
		kind := AllRelationKinds[rng.Intn(len(AllRelationKinds))]
		d.AddRelation(Relation{Kind: kind, Subject: pick(), Object: pick()})
	}
	return d
}

// TestIndexMatchesMapIndex: over randomized documents, dangling
// endpoints and all, the arena index numbers the same nodes in the same
// order as the map index it replaced, has the same rows and the same
// dangling relation, and answers Has and Reach alike in every direction
// at several depth limits, for names it holds and names it does not.
func TestIndexMatchesMapIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	probes := append(slices.Clone(oracleNames), "ex:a000", "ex:c", "e", "zz:z", "ex")
	for i := 0; i < 300; i++ {
		d := randomOracleDoc(rng, i%2 == 0)
		ix, want := NewIndex(d), newMapIndex(d)
		if ix.Dangling() != want.dangling {
			t.Fatalf("doc %d: Dangling() = %v, the map index says %v", i, ix.Dangling(), want.dangling)
		}
		if ix.Len() != len(want.names) {
			t.Fatalf("doc %d: %d nodes, the map index has %d", i, ix.Len(), len(want.names))
		}
		for id, q := range want.names {
			if got := ix.Name(int32(id)); got != q {
				t.Fatalf("doc %d: Name(%d) = %q, the map index says %q", i, id, got, q)
			}
			for _, dir := range []Direction{Forward, Reverse} {
				wantRow := want.fwd.row(int32(id))
				if dir == Reverse {
					wantRow = want.rev.row(int32(id))
				}
				if got := ix.Row(int32(id), dir); !slices.Equal(got, wantRow) {
					t.Fatalf("doc %d: Row(%q, %d) = %v, the map index says %v", i, q, dir, got, wantRow)
				}
			}
		}
		for _, q := range probes {
			if got, w := ix.Has(q), want.Has(q); got != w {
				t.Fatalf("doc %d: Has(%q) = %v, the map index says %v", i, q, got, w)
			}
			for _, dir := range []Direction{Forward, Reverse, Undirected} {
				for _, depth := range []int{0, 1, 2, 3, len(want.names)} {
					got, ok := ix.Reach(q, dir, depth)
					w, wok := want.Reach(q, dir, depth)
					if ok != wok || !slices.Equal(got, w) {
						t.Fatalf("doc %d: Reach(%q, %d, %d) = %v %v, the map index says %v %v", i, q, dir, depth, got, ok, w, wok)
					}
				}
			}
		}
	}
}

// TestIndexNamesInArena: every name an index hands out is a slice of
// its own arena, so an index keeps no string of the document or blob it
// was built from, whichever builder built it.
func TestIndexNamesInArena(t *testing.T) {
	docs := []*Document{chainDoc()}
	for _, depth := range []int{12, 256} {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20; i++ {
		docs = append(docs, randomOracleDoc(rng, true))
	}
	for i, d := range docs {
		fromBlob, _, err := IndexBinary(AppendBinary(nil, d))
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{NewIndex(d), fromBlob} {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(ix.names)))
			hi := lo + uintptr(len(ix.names))
			for id := int32(0); id < int32(ix.Len()); id++ {
				q := ix.Name(id)
				if len(q) == 0 {
					continue // an empty string points nowhere
				}
				p := uintptr(unsafe.Pointer(unsafe.StringData(string(q))))
				if p < lo || p+uintptr(len(q)) > hi {
					t.Fatalf("doc %d: Name(%d) = %q lies outside the index's arena", i, id, q)
				}
			}
		}
	}
}

// BenchmarkNewIndex builds the index of a chain document of the
// benchmark corpus's three depths with the oracle, for comparison with
// BenchmarkIndexBinary.
func BenchmarkNewIndex(b *testing.B) {
	for _, depth := range []int{12, 64, 256} {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewIndex(d)
			}
		})
	}
}
