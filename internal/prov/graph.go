package prov

import "slices"

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
// and results come out name-sorted by sorting ids. An element declared
// in more than one class is one node. Endpoints a relation names
// without declaring them (Validate rejects such a document, the
// traversal methods on Document never did) are nodes as well; Dangling
// reports them.
type Index struct {
	ids      map[QName]int32
	names    []QName // sorted; a node's id is its position
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

// NewIndex indexes d. The index keeps no reference to d, which must not
// change while the index is used to answer for it.
func NewIndex(d *Document) *Index {
	n := len(d.Entities) + len(d.Activities) + len(d.Agents)
	ix := &Index{ids: make(map[QName]int32, n), names: make([]QName, 0, n)}
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

	type edge struct{ from, to int32 }
	edges := make([]edge, len(d.Relations))
	// resolve maps every relation to node ids and returns the endpoints
	// that are not nodes yet.
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
		// Name order within a row keeps traversal order — which of two
		// equally short paths Path returns — independent of the order
		// relations were added in.
		for i := int32(0); i < int32(n); i++ {
			slices.Sort(rows.row(i))
		}
		return rows
	}
	ix.fwd = build(false)
	ix.rev = build(true)
	return ix
}

// number sorts and deduplicates names and assigns ids by position.
func (ix *Index) number() {
	slices.Sort(ix.names)
	ix.names = slices.Compact(ix.names)
	for i, q := range ix.names {
		ix.ids[q] = int32(i)
	}
}

// Has reports whether q is a node of the index.
func (ix *Index) Has(q QName) bool {
	_, ok := ix.ids[q]
	return ok
}

// Dangling returns the first relation naming an endpoint the document
// does not declare, or nil when every endpoint is an element.
func (ix *Index) Dangling() *Relation { return ix.dangling }

// Names returns every node, sorted: a node's id is its position. The
// slice is the index's own and must not be modified.
func (ix *Index) Names() []QName { return ix.names }

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
	s, ok := ix.ids[start]
	if !ok {
		return nil, false
	}
	visited := make([]bool, len(ix.names))
	visited[s] = true
	queue := make([]int32, 1, len(ix.names))
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
		reach[i] = ix.names[id]
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

// Subgraph extracts the sub-document induced by the given node set:
// those elements plus every relation whose both endpoints are in the set.
func (d *Document) Subgraph(nodes []QName) *Document {
	keep := make(map[QName]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
	}
	sub := NewDocument()
	sub.Namespaces = d.Namespaces.Clone()
	for id, e := range d.Entities {
		if keep[id] {
			sub.AddEntity(id, e.Attrs.Clone())
		}
	}
	for id, a := range d.Activities {
		if keep[id] {
			na := sub.AddActivity(id, a.Attrs.Clone())
			na.StartTime, na.EndTime = a.StartTime, a.EndTime
		}
	}
	for id, g := range d.Agents {
		if keep[id] {
			sub.AddAgent(id, g.Attrs.Clone())
		}
	}
	for _, r := range d.Relations {
		if keep[r.Subject] && keep[r.Object] {
			sub.AddRelation(Relation{Kind: r.Kind, Subject: r.Subject, Object: r.Object, Time: r.Time, Attrs: r.Attrs.Clone()})
		}
	}
	return sub
}

// Neighborhood returns the sub-document of d, the document the index
// was built from, within the given number of hops of start, ignoring
// edge direction; hops <= 0 selects start alone.
func (ix *Index) Neighborhood(d *Document, start QName, hops int) *Document {
	nodes := []QName{start}
	if hops > 0 {
		reach, _ := ix.Reach(start, Undirected, hops)
		nodes = append(nodes, reach...)
	}
	return d.Subgraph(nodes)
}
