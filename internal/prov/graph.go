package prov

import (
	"slices"
	"sort"
)

// Direction selects which way a traversal follows relation edges. A
// relation is oriented subject -> object (used: activity -> entity;
// wasGeneratedBy: entity -> activity), so following one walks backwards
// in time, from results toward their origins.
type Direction uint8

// Traversal directions.
const (
	// Forward follows subject -> object, toward origins (ancestors).
	Forward Direction = iota
	// Reverse follows object -> subject, toward derived things
	// (descendants).
	Reverse
	// Undirected follows both.
	Undirected
)

// Index is the traversal index of one document, immutable once built:
// every element — isolated ones too — gets a dense int32 id in
// qualified-name order, and the relations are stored in both
// orientations as compressed sparse rows, so a traversal runs over
// int32 slices with a flat visited array whose size is the document's,
// and results come out name-sorted by sorting ids. The names are one
// string, sorted and concatenated, and a name is found by binary search
// over it: an index is a few flat arrays, with no map and no string of
// the document it was built from. An element declared in more than one
// class is one node. Endpoints a relation names without declaring them
// (Validate rejects such a document, the traversal methods on Document
// never did) are nodes as well; Dangling reports them. IndexBinary
// builds one from a document's binary encoding.
type Index struct {
	// names holds every node's name, sorted and concatenated: node id's
	// name is names[offs[id]:offs[id+1]].
	names    string
	offs     []int32
	fwd      csrRows
	rev      csrRows
	dangling *Relation
}

type csrRows struct {
	rowStart []int32
	targets  []int32
}

func (c *csrRows) row(id int32) []int32 {
	return c.targets[c.rowStart[id]:c.rowStart[id+1]]
}

type edge struct{ from, to int32 }

// newIndexArrays allocates an index of n nodes and m relations: its
// offsets and both row sets are slices of one int32 slab.
func newIndexArrays(n, m int) *Index {
	slab := make([]int32, 3*(n+1)+2*m)
	cut := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	ix := &Index{offs: cut(n + 1)}
	ix.fwd = csrRows{rowStart: cut(n + 1), targets: cut(m)}
	ix.rev = csrRows{rowStart: cut(n + 1), targets: cut(m)}
	return ix
}

// setRows lays the edges, given as node ids, out as ix's rows.
func (ix *Index) setRows(edges []edge) {
	ix.fwd.fill(edges, false)
	ix.rev.fill(edges, true)
}

// fill lays the edges out as compressed sparse rows, subject -> object,
// or object -> subject when reverse, into rows' zeroed arrays.
func (rows *csrRows) fill(edges []edge, reverse bool) {
	n := len(rows.rowStart) - 1
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
	// Each row's start is its fill cursor, which ends at the next row's
	// start; shifting the starts up one slot restores them.
	for _, e := range edges {
		from, to := e.from, e.to
		if reverse {
			from, to = to, from
		}
		rows.targets[rows.rowStart[from]] = to
		rows.rowStart[from]++
	}
	copy(rows.rowStart[1:], rows.rowStart[:n])
	rows.rowStart[0] = 0
	// Name order within a row keeps traversal order — which of two
	// equally short paths Path returns — independent of the order
	// relations were added in.
	for i := int32(0); i < int32(n); i++ {
		slices.Sort(rows.row(i))
	}
}

// Len returns the number of nodes; ids run from 0 to Len()-1.
func (ix *Index) Len() int { return len(ix.offs) - 1 }

// Name returns the name of node id. Names sort as ids do.
func (ix *Index) Name(id int32) QName {
	return QName(ix.names[ix.offs[id]:ix.offs[id+1]])
}

// id returns q's node id, found by binary search over the names.
func (ix *Index) id(q QName) (int32, bool) {
	i := sort.Search(ix.Len(), func(i int) bool { return ix.Name(int32(i)) >= q })
	return int32(i), i < ix.Len() && ix.Name(int32(i)) == q
}

// Has reports whether q is a node of the index.
func (ix *Index) Has(q QName) bool {
	_, ok := ix.id(q)
	return ok
}

// Dangling returns the first relation naming an endpoint the document
// does not declare, or nil when every endpoint is an element.
func (ix *Index) Dangling() *Relation { return ix.dangling }

// Bytes returns the size of the index's arrays, in bytes.
func (ix *Index) Bytes() int {
	return len(ix.names) + 4*(len(ix.offs)+
		len(ix.fwd.rowStart)+len(ix.fwd.targets)+
		len(ix.rev.rowStart)+len(ix.rev.targets))
}

// Row returns the ids of the nodes one relation away from node id, in
// id order: away from origins for Reverse, toward them for any other
// direction. The slice is the index's own and must not be modified.
func (ix *Index) Row(id int32, dir Direction) []int32 {
	if dir == Reverse {
		return ix.rev.row(id)
	}
	return ix.fwd.row(id)
}

// Reach returns every node reachable from start within maxDepth hops
// (maxDepth <= 0 means unlimited), excluding start, in sorted order. ok
// is false when start is not a node.
func (ix *Index) Reach(start QName, dir Direction, maxDepth int) (reach []QName, ok bool) {
	s, ok := ix.id(start)
	if !ok {
		return nil, false
	}
	n := ix.Len()
	visited := make([]bool, n)
	visited[s] = true
	queue := make([]int32, 1, n)
	queue[0] = s
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
		reach[i] = ix.Name(id)
	}
	return reach, true
}

func appendUnvisited(queue []int32, visited []bool, row []int32) []int32 {
	for _, next := range row {
		if !visited[next] {
			visited[next] = true
			queue = append(queue, next)
		}
	}
	return queue
}
