package prov

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Census is what IndexBinary reads off a document beside its index:
// the elements of each class and the relations, counted as the decoded
// document's Stats counts them, and the elements whose prov:type has a
// string form.
type Census struct {
	Stats
	Types []TypeHit
}

// TypeHit is one element whose prov:type value has a string form
// (Value.StringForm).
type TypeHit struct {
	Type  string
	Node  int32  // the element's node id in the index
	Class string // "Entity", "Activity" or "Agent"
}

const (
	// allClasses masks a string's class bits; endpointBit marks a string
	// that only a relation endpoint names.
	allClasses  = 1<<len(elementClasses) - 1
	endpointBit = 1 << len(elementClasses)
	typeKey     = "prov:type"
)

// IndexBinary builds the index of a binary document blob (AppendBinary's
// format) by walking the blob in place, without decoding a Document,
// and takes its census on the way. It accepts what ParseBinary accepts
// but one shape AppendBinary never writes, a node name spelled by two
// strings of the blob's string table, and its index and census are
// those of the document ParseBinary decodes: a repeated attribute key's
// last value counts, and the relation Dangling returns carries its id,
// kind and endpoints. Relation endpoints resolve through an array
// indexed by the string table, so the one sort is over the node names.
// Neither the index nor the census keeps a reference to blob.
func IndexBinary(blob []byte) (*Index, Census, error) {
	w := indexWalks.Get().(*indexWalk)
	defer w.release()
	w.reset(blob)
	if err := w.r.walk(w); err != nil {
		return nil, Census{}, err
	}
	if err := w.sortNodes(); err != nil {
		return nil, Census{}, err
	}
	return w.index(), w.census(), nil
}

// binString is what IndexBinary makes of one string of a blob's string
// table.
type binString struct {
	// node is the string's node id, once the nodes are numbered.
	node int32
	// classes has bit c set when the string names an element of class
	// c, and endpointBit when only a relation endpoint names it.
	classes uint8
}

// typeSpan is a prov:type hit while IndexBinary walks: the element's
// string and class, and the type's bytes in indexWalk.types.
type typeSpan struct {
	str    int32
	class  uint8
	off, n int32
}

// nodeKey is a node's name, a view of the blob, and its string.
type nodeKey struct {
	name string
	str  int32
}

// indexWalk is IndexBinary's visitor and scratch. It is pooled, and
// each slice grows by append as the walk finds items, never to a count
// the blob declares. Its reader's strings are views of the blob.
type indexWalk struct {
	r     binReader
	strs  []binString // parallel to r.tab
	nodes []nodeKey
	// runs[c] ends class c's nodes in nodes: the names it declares that
	// no earlier class did. ascending holds while every run is in
	// ascending order and no relation endpoint has added a node, as in
	// every blob AppendBinary writes; sortNodes then merges the runs.
	runs      [len(elementClasses)]int
	ascending bool
	merged    []nodeKey // sortNodes' scratch
	edges     []edge
	hits      []typeSpan
	types     []byte
	counts    [len(elementClasses)]int
	rels      int
	nameBytes int
	// dangling is the first relation with an undeclared endpoint: its
	// id, kind, subject and object, views of the blob; ok when found.
	dangling struct {
		ok  bool
		str [4]string
	}
}

var indexWalks = sync.Pool{New: func() any { return new(indexWalk) }}

// release empties w — its strings are views of the blob — and pools it.
func (w *indexWalk) release() {
	w.reset(nil)
	indexWalks.Put(w)
}

// reset empties w for a walk over blob.
func (w *indexWalk) reset(blob []byte) {
	w.r.reuse(blob)
	clear(w.nodes)
	clear(w.merged)
	w.strs = w.strs[:0]
	w.nodes, w.merged = w.nodes[:0], w.merged[:0]
	w.runs, w.ascending = [len(elementClasses)]int{}, true
	w.edges = w.edges[:0]
	w.hits = w.hits[:0]
	w.types = w.types[:0]
	w.counts, w.rels, w.nameBytes = [len(elementClasses)]int{}, 0, 0
	w.dangling.ok, w.dangling.str = false, [4]string{}
}

// fit grows w.strs to the string table the walk has read so far.
func (w *indexWalk) fit() {
	w.strs = append(w.strs, make([]binString, len(w.r.tab)-len(w.strs))...)
}

func (w *indexWalk) addNode(s int32) {
	w.nodes = append(w.nodes, nodeKey{w.r.tab[s], s})
	w.nameBytes += len(w.r.tab[s])
}

func (w *indexWalk) namespace(prefix, uri int32) {}

func (w *indexWalk) section(sec, n int) {
	if sec > 0 {
		w.runs[sec-1] = len(w.nodes)
	}
	if sec == relSection {
		w.rels = n
	}
}

// element counts the element, makes its string a node when no class
// declared it yet, and records its prov:type. An id declared twice in
// one class is refused.
func (w *indexWalk) element(c uint8, s int32, attrs []binAttr, _, _ time.Time) error {
	w.fit()
	bit := uint8(1) << c
	bs := &w.strs[s]
	if bs.classes&bit != 0 {
		return fmt.Errorf("prov: binary document declares %s %s twice", elementClasses[c], w.r.tab[s])
	}
	w.counts[c]++
	if bs.classes&allClasses == 0 {
		if start := w.runStart(c); len(w.nodes) > start && w.nodes[len(w.nodes)-1].name >= w.r.tab[s] {
			w.ascending = false
		}
		w.addNode(s)
	}
	bs.classes |= bit
	if typ, ok := w.r.attr(attrs, typeKey); ok {
		w.addHit(s, c, typ)
	}
	return nil
}

// addHit records typ as the prov:type of element s of class c, when it
// has a string form.
func (w *indexWalk) addHit(s int32, c uint8, typ Value) {
	form, ok := typ.StringForm()
	if !ok {
		return
	}
	h := typeSpan{str: s, class: c, off: int32(len(w.types))}
	w.types = append(w.types, form...)
	h.n = int32(len(w.types)) - h.off
	w.hits = append(w.hits, h)
}

// relation records the relation's edge; an endpoint no element declares
// becomes a node.
func (w *indexWalk) relation(id, kind, from, to int32, _ time.Time, _ []binAttr) error {
	w.fit()
	dangles := false
	for _, s := range [2]int32{from, to} {
		if bs := &w.strs[s]; bs.classes&allClasses == 0 {
			dangles = true
			if bs.classes == 0 {
				bs.classes = endpointBit
				w.addNode(s)
				w.ascending = false
			}
		}
	}
	if dangles && !w.dangling.ok {
		w.dangling.ok = true
		w.dangling.str = [4]string{w.r.tab[id], w.r.tab[kind], w.r.tab[from], w.r.tab[to]}
	}
	w.edges = append(w.edges, edge{from, to})
	return nil
}

// runStart is where class c's nodes start in w.nodes.
func (w *indexWalk) runStart(c uint8) int {
	if c == 0 {
		return 0
	}
	return w.runs[c-1]
}

// sortNodes sorts the nodes by name — merging the classes' runs when
// they are ascending, sorting otherwise — and refuses a name two
// strings of the table spell, which AppendBinary never writes: the
// order puts them side by side.
func (w *indexWalk) sortNodes() error {
	if w.ascending {
		w.mergeRuns()
	} else {
		slices.SortFunc(w.nodes, func(a, b nodeKey) int { return strings.Compare(a.name, b.name) })
	}
	for i := 1; i < len(w.nodes); i++ {
		if w.nodes[i].name == w.nodes[i-1].name {
			return fmt.Errorf("prov: binary document writes node name %s twice", w.nodes[i].name)
		}
	}
	return nil
}

// mergeRuns sorts w.nodes, the three ascending runs of the element
// classes, by merging the entities' and the activities' into w.merged,
// then that into the agents' run, which ends w.nodes: writing from the
// front never overtakes an agent not yet read.
func (w *indexWalk) mergeRuns() {
	nodes := w.nodes
	w.merged = mergeNodes(w.merged[:0], nodes[:w.runs[0]], nodes[w.runs[0]:w.runs[1]])
	m, j, k := w.merged, w.runs[1], 0
	for len(m) > 0 && j < len(nodes) {
		if m[0].name < nodes[j].name {
			nodes[k], m = m[0], m[1:]
		} else {
			nodes[k] = nodes[j]
			j++
		}
		k++
	}
	copy(nodes[k:], m)
}

// mergeNodes appends the merge of the ascending runs a and b to dst.
func mergeNodes(dst, a, b []nodeKey) []nodeKey {
	for len(a) > 0 && len(b) > 0 {
		if a[0].name < b[0].name {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// index numbers the sorted nodes, copies their names into the index's
// arena and lays the edges out as its rows.
func (w *indexWalk) index() *Index {
	ix := newIndexArrays(len(w.nodes), len(w.edges))
	var arena strings.Builder
	arena.Grow(w.nameBytes)
	for i, k := range w.nodes {
		arena.WriteString(k.name)
		ix.offs[i+1] = int32(arena.Len())
		w.strs[k.str].node = int32(i)
	}
	ix.names = arena.String()
	for i, e := range w.edges {
		w.edges[i] = edge{w.strs[e.from].node, w.strs[e.to].node}
	}
	ix.setRows(w.edges)
	if d := w.dangling; d.ok {
		ix.dangling = &Relation{
			ID:      strings.Clone(d.str[0]),
			Kind:    RelationKind(strings.Clone(d.str[1])),
			Subject: QName(strings.Clone(d.str[2])),
			Object:  QName(strings.Clone(d.str[3])),
		}
	}
	return ix
}

// census is the walk's counts and type hits, their types copied into
// one string.
func (w *indexWalk) census() Census {
	c := Census{Stats: Stats{Entities: w.counts[0], Activities: w.counts[1], Agents: w.counts[2], Relations: w.rels}}
	if len(w.hits) == 0 {
		return c
	}
	types := string(w.types)
	c.Types = make([]TypeHit, len(w.hits))
	for i, h := range w.hits {
		c.Types[i] = TypeHit{types[h.off : h.off+h.n], w.strs[h.str].node, elementClasses[h.class]}
	}
	return c
}

// ElementAttr calls fn for every element of a binary document blob, in
// the blob's order, with its class, its qualified name and the value of
// its attribute key — the last, when the key repeats; ok is false when
// it has none. It walks the blob in place and decodes no document: id
// and v are views of blob.
func ElementAttr(blob []byte, key string, fn func(class string, id QName, v Value, ok bool)) error {
	w := attrWalks.Get().(*attrWalk)
	w.r.reuse(blob)
	w.key, w.fn = key, fn
	err := w.r.walk(w)
	w.r.reuse(nil)
	w.key, w.fn = "", nil
	attrWalks.Put(w)
	return err
}

// attrWalk is ElementAttr's visitor. It is pooled.
type attrWalk struct {
	r   binReader
	key string
	fn  func(class string, id QName, v Value, ok bool)
}

var attrWalks = sync.Pool{New: func() any { return new(attrWalk) }}

func (w *attrWalk) namespace(prefix, uri int32) {}

func (w *attrWalk) section(sec, n int) {}

func (w *attrWalk) element(c uint8, id int32, attrs []binAttr, _, _ time.Time) error {
	v, ok := w.r.attr(attrs, w.key)
	w.fn(elementClasses[c], QName(w.r.tab[id]), v, ok)
	return nil
}

func (w *attrWalk) relation(id, kind, subject, object int32, t time.Time, attrs []binAttr) error {
	return nil
}
