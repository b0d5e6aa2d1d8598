// Package graphdb is an embedded, in-memory property graph: labeled
// nodes and typed relationships carry property maps, and Closure walks
// the relationships breadth-first. It stood in for the Neo4j back-end of
// the yProv service until lineage moved onto prov.Index.
//
// The package is not on the serving path: provstore answers lineage
// from one immutable prov.Index per stored document. What remains is the
// graph the benchmark's graphdb.closure_us_per_call probe builds and
// times.
//
// # Ordering semantics
//
// Closure returns its nodes sorted by id. The walk itself expands
// neighbors in adjacency insertion order — outgoing before incoming,
// relationship types in first-use order, edges in creation order within
// a type — so it is deterministic across runs.
package graphdb

import (
	"fmt"
	"slices"
	"sync"
)

// NodeID identifies a node.
type NodeID int64

// RelID identifies a relationship.
type RelID int64

// Props is a property bag. Values must be string, int64, float64 or bool.
type Props map[string]interface{}

// Clone returns a copy of the property bag.
func (p Props) Clone() Props {
	if p == nil {
		return Props{}
	}
	c := make(Props, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

func validateProps(p Props) error {
	for k, v := range p {
		switch v.(type) {
		case string, int64, float64, bool:
		case int:
			p[k] = int64(v.(int))
		default:
			return fmt.Errorf("graphdb: property %q has unsupported type %T", k, v)
		}
	}
	return nil
}

// node is a labeled vertex.
type node struct {
	labels []string
	props  Props
}

// relationship is a directed, typed edge.
type relationship struct {
	typ      string
	from, to NodeID
	props    Props
}

// Direction selects traversal orientation.
type Direction int

// Traversal directions.
const (
	Outgoing Direction = iota
	Incoming
	Both
)

// halfEdge is one end of a relationship as seen from a node's adjacency.
type halfEdge struct {
	rel   RelID
	other NodeID
}

// bucketSet holds one direction of a node's adjacency, split into
// per-relationship-type buckets kept in insertion order. The type-filtered
// traversal that dominates lineage queries selects one bucket directly
// instead of filtering a flat relationship list.
//
// Most PROV nodes see exactly one relationship type per direction (an
// entity is wasGeneratedBy, an activity used, ...), so the first type's
// bucket lives inline and the map only materializes when a second type
// appears — bulk projection then allocates one edge slice per node
// instead of a map, a types slice, and their growth.
type bucketSet struct {
	t0      string                // first relationship type seen (inline bucket)
	b0      []halfEdge            // edges of t0 while no map exists
	types   []string              // relationship types in first-use order (spilled)
	buckets map[string][]halfEdge // nil until a second type appears
}

func (b *bucketSet) add(relType string, e halfEdge) {
	if b.buckets == nil {
		if len(b.b0) == 0 || relType == b.t0 {
			b.t0 = relType
			b.b0 = append(b.b0, e)
			return
		}
		// Second type: spill the inline bucket into the map layout.
		b.buckets = make(map[string][]halfEdge, 2)
		b.buckets[b.t0] = b.b0
		b.types = append(b.types, b.t0)
		b.b0 = nil
	}
	lst, ok := b.buckets[relType]
	if !ok {
		b.types = append(b.types, relType)
	}
	b.buckets[relType] = append(lst, e)
}

// forEach visits the bucket edges in deterministic order; fn returning
// false stops the iteration, and forEach reports whether it ran to
// completion.
func (b *bucketSet) forEach(relType string, fn func(other NodeID, rel RelID) bool) bool {
	if b.buckets == nil {
		if relType != "" && relType != b.t0 {
			return true
		}
		for _, e := range b.b0 {
			if !fn(e.other, e.rel) {
				return false
			}
		}
		return true
	}
	if relType != "" {
		for _, e := range b.buckets[relType] {
			if !fn(e.other, e.rel) {
				return false
			}
		}
		return true
	}
	for _, t := range b.types {
		for _, e := range b.buckets[t] {
			if !fn(e.other, e.rel) {
				return false
			}
		}
	}
	return true
}

// nodeAdj is a node's full adjacency.
type nodeAdj struct {
	out bucketSet
	in  bucketSet
}

// Graph is the engine. All methods are safe for concurrent use.
type Graph struct {
	mu       sync.RWMutex
	nodes    map[NodeID]*node
	rels     map[RelID]*relationship
	adj      map[NodeID]*nodeAdj
	nextNode NodeID
	nextRel  RelID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]*node),
		rels:  make(map[RelID]*relationship),
		adj:   make(map[NodeID]*nodeAdj),
	}
}

// CreateNode inserts a node and returns its id.
func (g *Graph) CreateNode(labels []string, props Props) (NodeID, error) {
	labels, props = append([]string(nil), labels...), props.Clone()
	if err := validateProps(props); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextNode++
	id := g.nextNode
	g.nodes[id] = &node{labels: labels, props: props}
	return id, nil
}

// CreateRel inserts a relationship between existing nodes.
func (g *Graph) CreateRel(from, to NodeID, relType string, props Props) (RelID, error) {
	props = props.Clone()
	if err := validateProps(props); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[from]; !ok {
		return 0, fmt.Errorf("graphdb: from-node %d does not exist", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return 0, fmt.Errorf("graphdb: to-node %d does not exist", to)
	}
	g.nextRel++
	id := g.nextRel
	g.rels[id] = &relationship{typ: relType, from: from, to: to, props: props}
	g.adjFor(from).out.add(relType, halfEdge{rel: id, other: to})
	g.adjFor(to).in.add(relType, halfEdge{rel: id, other: from})
	return id, nil
}

func (g *Graph) adjFor(id NodeID) *nodeAdj {
	ad := g.adj[id]
	if ad == nil {
		ad = &nodeAdj{}
		g.adj[id] = ad
	}
	return ad
}

// forEachNeighborLocked streams the adjacency of id without allocating:
// outgoing edges first, then incoming, each in bucket insertion order.
// fn returning false stops the walk.
func (g *Graph) forEachNeighborLocked(id NodeID, dir Direction, relType string, fn func(other NodeID, rel RelID) bool) {
	ad := g.adj[id]
	if ad == nil {
		return
	}
	if dir == Outgoing || dir == Both {
		if !ad.out.forEach(relType, fn) {
			return
		}
	}
	if dir == Incoming || dir == Both {
		ad.in.forEach(relType, fn)
	}
}

// traversalScratch is reusable BFS state: a head-indexed FIFO queue and a
// generation-stamped visited array indexed by NodeID, so traversals make
// zero per-hop allocations and never clear state between runs.
type traversalScratch struct {
	visited []uint32
	gen     uint32
	queue   []NodeID
}

var scratchPool = sync.Pool{New: func() interface{} { return &traversalScratch{} }}

// getScratch leases scratch state able to index node ids up to maxID.
func getScratch(maxID NodeID) *traversalScratch {
	sc := scratchPool.Get().(*traversalScratch)
	if len(sc.visited) <= int(maxID) {
		sc.visited = make([]uint32, maxID+1)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 { // generation counter wrapped: stamps are stale
		clear(sc.visited)
		sc.gen = 1
	}
	sc.queue = sc.queue[:0]
	return sc
}

// Closure returns every node reachable from start within maxDepth hops
// (maxDepth <= 0 means unlimited), excluding start, sorted by node id.
func (g *Graph) Closure(start NodeID, dir Direction, relType string, maxDepth int) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[start]; !ok {
		return nil
	}
	sc := getScratch(g.nextNode)
	defer scratchPool.Put(sc)
	sc.visited[start] = sc.gen
	sc.queue = append(sc.queue, start)
	var out []NodeID
	head, depth, levelEnd := 0, 0, 1
	for head < len(sc.queue) {
		if head == levelEnd {
			depth++
			levelEnd = len(sc.queue)
		}
		if maxDepth > 0 && depth >= maxDepth {
			break
		}
		cur := sc.queue[head]
		head++
		g.forEachNeighborLocked(cur, dir, relType, func(other NodeID, _ RelID) bool {
			if sc.visited[other] == sc.gen {
				return true
			}
			sc.visited[other] = sc.gen
			out = append(out, other)
			sc.queue = append(sc.queue, other)
			return true
		})
	}
	slices.Sort(out)
	return out
}
