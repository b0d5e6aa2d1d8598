// Package graphdb is an embedded, in-memory property-graph engine. It
// stands in for the Neo4j back-end of the yProv service: labeled nodes
// and typed relationships carry property maps, label and property
// indexes accelerate lookup, and traversal primitives (neighbors, BFS
// closure, shortest path) support multi-level lineage exploration. A
// small pattern-query language is provided in query.go.
//
// The package is not on the serving path: provstore answers lineage
// from one immutable prov.Index per stored document. graphdb stays as
// the reference engine provstore's equivalence test compares that index
// against, and as what the benchmark's graphdb.* probe measures.
//
// # Ordering semantics
//
// All APIs are deterministic. The exported snapshot accessors sort their
// results: Neighbors by (Node, Rel), Rels/AllRels/AllNodes by id,
// Closure/NodesByLabel/FindNodes by node id. Internal traversal
// (Closure, ShortestPath, query hops) expands neighbors in adjacency
// insertion order — outgoing before incoming, relationship types in
// first-use order, edges in creation order within a type — so
// tie-breaking (e.g. which of two equal-length shortest paths is
// returned) is stable across runs but follows insertion order, not node
// id order.
package graphdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
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

// Node is a labeled vertex.
type Node struct {
	ID     NodeID
	Labels []string
	Props  Props
}

// HasLabel reports whether the node carries the label.
func (n *Node) HasLabel(label string) bool {
	for _, l := range n.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Rel is a directed, typed relationship.
type Rel struct {
	ID    RelID
	Type  string
	From  NodeID
	To    NodeID
	Props Props
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

func (b *bucketSet) remove(relType string, rel RelID) {
	if b.buckets == nil {
		if relType != b.t0 {
			return
		}
		for i, e := range b.b0 {
			if e.rel == rel {
				b.b0 = append(b.b0[:i], b.b0[i+1:]...)
				return
			}
		}
		return
	}
	lst := b.buckets[relType]
	for i, e := range lst {
		if e.rel == rel {
			b.buckets[relType] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
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

// propKey is an allocation-free comparable key for an indexable property
// value: one struct instead of a formatted string.
type propKey struct {
	kind byte   // 's' string, 'i' int64, 'f' float64, 'b' bool, 0 invalid
	str  string // set for 's'
	bits uint64 // int64 / float64 / bool payload
}

// makePropKey renders an indexable property value as a comparable key.
func makePropKey(v interface{}) propKey {
	switch x := v.(type) {
	case string:
		return propKey{kind: 's', str: x}
	case int64:
		return propKey{kind: 'i', bits: uint64(x)}
	case int:
		return propKey{kind: 'i', bits: uint64(int64(x))}
	case float64:
		return propKey{kind: 'f', bits: math.Float64bits(x)}
	case bool:
		var b uint64
		if x {
			b = 1
		}
		return propKey{kind: 'b', bits: b}
	}
	return propKey{str: fmt.Sprint(v)}
}

// nodeSet is a small-footprint node-id set for index postings. Unique
// property values (every node's qname, for instance) index exactly one
// node, so the single-member case lives inline in the posting map's
// value slot; a real map materializes only when a second node shares
// the value. This keeps bulk projection from allocating one set map
// per indexed node.
type nodeSet struct {
	single NodeID // inline member while m == nil (0 = empty)
	m      map[NodeID]struct{}
}

// with returns the set including id (value-semantics update).
func (s nodeSet) with(id NodeID) nodeSet {
	if s.m != nil {
		s.m[id] = struct{}{}
		return s
	}
	if s.single == 0 || s.single == id {
		s.single = id
		return s
	}
	return nodeSet{m: map[NodeID]struct{}{s.single: {}, id: {}}}
}

// without returns the set with id removed.
func (s nodeSet) without(id NodeID) nodeSet {
	if s.m != nil {
		delete(s.m, id)
		return s
	}
	if s.single == id {
		s.single = 0
	}
	return s
}

// sorted returns the members in ascending order.
func (s nodeSet) sorted() []NodeID {
	if s.m == nil {
		if s.single == 0 {
			return []NodeID{}
		}
		return []NodeID{s.single}
	}
	return sortedNodeIDs(s.m)
}

// Graph is the engine. All methods are safe for concurrent use.
type Graph struct {
	mu      sync.RWMutex
	nodes   map[NodeID]*Node
	rels    map[RelID]*Rel
	adj     map[NodeID]*nodeAdj
	byLabel map[string]map[NodeID]struct{}
	// propIndex[label][prop][valueKey] -> node set
	propIndex map[string]map[string]map[propKey]nodeSet
	nextNode  NodeID
	nextRel   RelID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:     make(map[NodeID]*Node),
		rels:      make(map[RelID]*Rel),
		adj:       make(map[NodeID]*nodeAdj),
		byLabel:   make(map[string]map[NodeID]struct{}),
		propIndex: make(map[string]map[string]map[propKey]nodeSet),
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
	n := &Node{ID: id, Labels: labels, Props: props}
	g.nodes[id] = n
	for _, l := range n.Labels {
		if g.byLabel[l] == nil {
			g.byLabel[l] = make(map[NodeID]struct{})
		}
		g.byLabel[l][id] = struct{}{}
		g.indexNodeLocked(l, n)
	}
	return id, nil
}

// indexNodeLocked adds node properties to any indexes on label l.
func (g *Graph) indexNodeLocked(label string, n *Node) {
	idx, ok := g.propIndex[label]
	if !ok {
		return
	}
	for prop, values := range idx {
		if v, ok := n.Props[prop]; ok {
			key := makePropKey(v)
			values[key] = values[key].with(n.ID)
		}
	}
}

// unindexNodeLocked removes node n from all indexes.
func (g *Graph) unindexNodeLocked(n *Node) {
	for _, l := range n.Labels {
		idx, ok := g.propIndex[l]
		if !ok {
			continue
		}
		for prop, values := range idx {
			if v, ok := n.Props[prop]; ok {
				key := makePropKey(v)
				if set, ok := values[key]; ok {
					values[key] = set.without(n.ID)
				}
			}
		}
	}
}

// GetNode returns a copy of the node.
func (g *Graph) GetNode(id NodeID) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return Node{}, false
	}
	return Node{ID: n.ID, Labels: append([]string(nil), n.Labels...), Props: n.Props.Clone()}, true
}

// SetProps merges the given properties into the node.
func (g *Graph) SetProps(id NodeID, props Props) error {
	props = props.Clone()
	if err := validateProps(props); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("graphdb: node %d does not exist", id)
	}
	g.unindexNodeLocked(n)
	for k, v := range props {
		n.Props[k] = v
	}
	for _, l := range n.Labels {
		g.indexNodeLocked(l, n)
	}
	return nil
}

// DeleteNode removes a node and all relationships attached to it.
func (g *Graph) DeleteNode(id NodeID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("graphdb: node %d does not exist", id)
	}
	if ad := g.adj[id]; ad != nil {
		var doomed []RelID
		ad.out.forEach("", func(_ NodeID, rel RelID) bool {
			doomed = append(doomed, rel)
			return true
		})
		ad.in.forEach("", func(_ NodeID, rel RelID) bool {
			doomed = append(doomed, rel)
			return true
		})
		for _, rid := range doomed {
			g.deleteRelLocked(rid)
		}
	}
	g.unindexNodeLocked(n)
	for _, l := range n.Labels {
		delete(g.byLabel[l], id)
	}
	delete(g.nodes, id)
	delete(g.adj, id)
	return nil
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
	g.rels[id] = &Rel{ID: id, Type: relType, From: from, To: to, Props: props}
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

// GetRel returns a copy of the relationship.
func (g *Graph) GetRel(id RelID) (Rel, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	r, ok := g.rels[id]
	if !ok {
		return Rel{}, false
	}
	return Rel{ID: r.ID, Type: r.Type, From: r.From, To: r.To, Props: r.Props.Clone()}, true
}

// DeleteRel removes a relationship.
func (g *Graph) DeleteRel(id RelID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.rels[id]; !ok {
		return fmt.Errorf("graphdb: rel %d does not exist", id)
	}
	g.deleteRelLocked(id)
	return nil
}

func (g *Graph) deleteRelLocked(id RelID) {
	r, ok := g.rels[id]
	if !ok {
		return
	}
	if ad := g.adj[r.From]; ad != nil {
		ad.out.remove(r.Type, id)
	}
	if ad := g.adj[r.To]; ad != nil {
		ad.in.remove(r.Type, id)
	}
	delete(g.rels, id)
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// RelCount returns the number of relationships.
func (g *Graph) RelCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.rels)
}

// NodesByLabel returns ids of all nodes with the label, sorted.
func (g *Graph) NodesByLabel(label string) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortedNodeIDs(g.byLabel[label])
}

func sortedNodeIDs(set map[NodeID]struct{}) []NodeID {
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// CreateIndex builds (or rebuilds) an index on (label, prop).
func (g *Graph) CreateIndex(label, prop string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.propIndex[label] == nil {
		g.propIndex[label] = make(map[string]map[propKey]nodeSet)
	}
	values := make(map[propKey]nodeSet)
	g.propIndex[label][prop] = values
	for id := range g.byLabel[label] {
		n := g.nodes[id]
		if v, ok := n.Props[prop]; ok {
			key := makePropKey(v)
			values[key] = values[key].with(id)
		}
	}
}

// HasIndex reports whether (label, prop) is indexed.
func (g *Graph) HasIndex(label, prop string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	idx, ok := g.propIndex[label]
	if !ok {
		return false
	}
	_, ok = idx[prop]
	return ok
}

// FindNodes returns ids of nodes with the label whose property equals
// value, using the index when available and a label scan otherwise.
func (g *Graph) FindNodes(label, prop string, value interface{}) []NodeID {
	if iv, ok := value.(int); ok {
		value = int64(iv)
	}
	want := makePropKey(value)
	g.mu.RLock()
	defer g.mu.RUnlock()
	if idx, ok := g.propIndex[label]; ok {
		if values, ok := idx[prop]; ok {
			return values[want].sorted()
		}
	}
	var out []NodeID
	for id := range g.byLabel[label] {
		if v, ok := g.nodes[id].Props[prop]; ok && makePropKey(v) == want {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Neighbor is one hop from a traversal origin.
type Neighbor struct {
	Node NodeID
	Rel  RelID
}

// Neighbors returns adjacent nodes in the given direction, optionally
// filtered by relationship type ("" matches all), sorted by (Node, Rel).
func (g *Graph) Neighbors(id NodeID, dir Direction, relType string) []Neighbor {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Neighbor
	g.forEachNeighborLocked(id, dir, relType, func(other NodeID, rel RelID) bool {
		out = append(out, Neighbor{Node: other, Rel: rel})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Rel < out[j].Rel
	})
	return out
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
	prev    []NodeID // only meaningful where visited == gen
	gen     uint32
	queue   []NodeID
}

var scratchPool = sync.Pool{New: func() interface{} { return &traversalScratch{} }}

// getScratch leases scratch state able to index node ids up to maxID.
func getScratch(maxID NodeID) *traversalScratch {
	sc := scratchPool.Get().(*traversalScratch)
	if len(sc.visited) <= int(maxID) {
		sc.visited = make([]uint32, maxID+1)
		sc.prev = make([]NodeID, maxID+1)
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

// ShortestPath returns node ids from -> ... -> to (inclusive), or nil.
// Among equal-length paths the one discovered first in adjacency
// insertion order wins.
func (g *Graph) ShortestPath(from, to NodeID, dir Direction, relType string) []NodeID {
	if from == to {
		return []NodeID{from}
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[from]; !ok {
		return nil
	}
	sc := getScratch(g.nextNode)
	defer scratchPool.Put(sc)
	sc.visited[from] = sc.gen
	sc.queue = append(sc.queue, from)
	found := false
	for head := 0; head < len(sc.queue) && !found; head++ {
		cur := sc.queue[head]
		g.forEachNeighborLocked(cur, dir, relType, func(other NodeID, _ RelID) bool {
			if sc.visited[other] == sc.gen {
				return true
			}
			sc.visited[other] = sc.gen
			sc.prev[other] = cur
			if other == to {
				found = true
				return false
			}
			sc.queue = append(sc.queue, other)
			return true
		})
	}
	if !found {
		return nil
	}
	var path []NodeID
	for n := to; ; n = sc.prev[n] {
		path = append(path, n)
		if n == from {
			break
		}
	}
	slices.Reverse(path)
	return path
}

// Rels returns copies of all relationships touching the node, sorted by
// relationship id.
func (g *Graph) Rels(id NodeID) []Rel {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Rel
	appendRel := func(_ NodeID, rid RelID) bool {
		r := g.rels[rid]
		out = append(out, Rel{ID: r.ID, Type: r.Type, From: r.From, To: r.To, Props: r.Props.Clone()})
		return true
	}
	if ad := g.adj[id]; ad != nil {
		ad.out.forEach("", appendRel)
		ad.in.forEach("", appendRel)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AllNodes returns copies of every node, sorted by id.
func (g *Graph) AllNodes() []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, Node{ID: n.ID, Labels: append([]string(nil), n.Labels...), Props: n.Props.Clone()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AllRels returns copies of every relationship, sorted by id.
func (g *Graph) AllRels() []Rel {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Rel, 0, len(g.rels))
	for _, r := range g.rels {
		out = append(out, Rel{ID: r.ID, Type: r.Type, From: r.From, To: r.To, Props: r.Props.Clone()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Clear removes everything.
func (g *Graph) Clear() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes = make(map[NodeID]*Node)
	g.rels = make(map[RelID]*Rel)
	g.adj = make(map[NodeID]*nodeAdj)
	g.byLabel = make(map[string]map[NodeID]struct{})
	for label := range g.propIndex {
		for prop := range g.propIndex[label] {
			g.propIndex[label][prop] = make(map[propKey]nodeSet)
		}
	}
}
