package prov

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
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

// elementClasses names the element classes in the order the binary
// format lists them.
var elementClasses = [3]string{"Entity", "Activity", "Agent"}

const (
	activityClass = 1
	// allClasses masks a string's class bits; endpointBit marks a string
	// that only a relation endpoint names.
	allClasses  = 1<<len(elementClasses) - 1
	endpointBit = 1 << len(elementClasses)
	typeKey     = "prov:type"
)

// IndexBinary builds the index of a binary document blob (AppendBinary's
// format) by walking the blob in place, without decoding a Document,
// and takes its census on the way. It accepts exactly the blobs
// ParseBinary accepts, and its index and census are those of the
// document ParseBinary decodes: an element declared twice in a class is
// one element whose last declaration counts, a repeated attribute key's
// last value counts, and the relation Dangling returns carries its id,
// kind and endpoints. Relation endpoints resolve through an array
// indexed by the blob's string table, so the one sort is over the node
// names. Neither the index nor the census keeps a reference to blob.
func IndexBinary(blob []byte) (*Index, Census, error) {
	if len(blob) == 0 || blob[0] != BinaryDocTag {
		return nil, Census{}, fmt.Errorf("prov: not a binary document")
	}
	w := indexWalks.Get().(*indexWalk)
	defer w.release()
	if err := w.walk(blob); err != nil {
		return nil, Census{}, err
	}
	if w.sortNodes() {
		// The string table holds a node name twice, which AppendBinary
		// never writes: walk again reading every copy as the first, so
		// that a name is one node, as it is one key of a Document's maps.
		w.canonicalize()
		if err := w.walk(blob); err != nil {
			return nil, Census{}, err
		}
		w.sortNodes()
	}
	return w.index(), w.census(), nil
}

// binString is what IndexBinary makes of one string of a blob's string
// table.
type binString struct {
	// node is the string's node id, once the nodes are numbered.
	node int32
	// hit[c] is 1 + the index in indexWalk.hits of the prov:type hit of
	// the string's element of class c; 0 for none.
	hit [len(elementClasses)]int32
	// classes has bit c set when the string names an element of class
	// c, and endpointBit when only a relation endpoint names it.
	classes uint8
}

// typeSpan is a prov:type hit while IndexBinary walks: the element's
// string and class, and the type's bytes in indexWalk.types.
type typeSpan struct {
	str    int32
	class  uint8
	dead   bool // a later declaration of the element replaced it
	off, n int32
}

// nodeKey is a node's name, a view of the blob, and its string.
type nodeKey struct {
	name string
	str  int32
}

// indexWalk is IndexBinary's scratch. It is pooled, and each slice
// grows by append as the walk finds items, never to a count the blob
// declares. Its reader's strings are views of the blob.
type indexWalk struct {
	r     binReader
	strs  []binString // parallel to r.tab
	nodes []nodeKey
	edges []edge
	hits  []typeSpan
	types []byte
	// canon, on a second walk, maps each string to the first of the
	// strings with the same bytes.
	canon     []int32
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
	w.canon = nil
	indexWalks.Put(w)
}

// reset empties w for a walk over blob.
func (w *indexWalk) reset(blob []byte) {
	clear(w.r.tab)
	clear(w.nodes)
	w.r = binReader{buf: blob, pos: 1, tab: w.r.tab[:0], views: true}
	w.strs = w.strs[:0]
	w.nodes = w.nodes[:0]
	w.edges = w.edges[:0]
	w.hits = w.hits[:0]
	w.types = w.types[:0]
	w.counts, w.rels, w.nameBytes = [len(elementClasses)]int{}, 0, 0
	w.dangling.ok, w.dangling.str = false, [4]string{}
}

// walk reads blob as ParseBinary does, collecting the nodes, edges and
// census instead of a document.
func (w *indexWalk) walk(blob []byte) error {
	w.reset(blob)
	n, err := w.r.count(minNamespaceBytes)
	if err != nil {
		return err
	}
	for i := 0; i < 2*n; i++ {
		if _, err := w.r.tok(); err != nil {
			return err
		}
	}
	for c := range uint8(len(elementClasses)) {
		minBytes := minElementBytes
		if c == activityClass {
			minBytes = minActivityBytes
		}
		if n, err = w.r.count(minBytes); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := w.element(c); err != nil {
				return err
			}
		}
	}
	if w.rels, err = w.r.count(minRelationBytes); err != nil {
		return err
	}
	for i := 0; i < w.rels; i++ {
		if err := w.relation(); err != nil {
			return err
		}
	}
	if w.r.pos != len(blob) {
		return fmt.Errorf("prov: %d trailing bytes after binary document", len(blob)-w.r.pos)
	}
	return nil
}

// str reads a string reference and returns the string that stands for
// it: itself but on a second walk.
func (w *indexWalk) str() (int32, error) {
	s, err := w.r.tok()
	if err != nil {
		return 0, err
	}
	for len(w.strs) < len(w.r.tab) {
		w.strs = append(w.strs, binString{})
	}
	if w.canon != nil {
		s = w.canon[s]
	}
	return s, nil
}

func (w *indexWalk) addNode(s int32) {
	w.nodes = append(w.nodes, nodeKey{w.r.tab[s], s})
	w.nameBytes += len(w.r.tab[s])
}

// element reads one element of class c: its id, its attributes and,
// for an activity, its times.
func (w *indexWalk) element(c uint8) error {
	s, err := w.str()
	if err != nil {
		return err
	}
	bit := uint8(1) << c
	switch bs := &w.strs[s]; {
	case bs.classes&bit == 0:
		w.counts[c]++
		if bs.classes&allClasses == 0 {
			w.addNode(s)
		}
		bs.classes |= bit
	case bs.hit[c] != 0:
		// A later declaration replaces the element's attributes.
		w.hits[bs.hit[c]-1].dead = true
		bs.hit[c] = 0
	}
	typ, ok, err := w.attrs()
	if err != nil {
		return err
	}
	if c == activityClass {
		for range 2 {
			if _, err := w.r.time(); err != nil {
				return err
			}
		}
	}
	if ok {
		w.addHit(s, c, typ)
	}
	return nil
}

// attrs reads an attribute list and returns the last prov:type value
// in it, if any.
func (w *indexWalk) attrs() (typ Value, ok bool, err error) {
	n, err := w.r.count(minAttrBytes)
	if err != nil {
		return typ, false, err
	}
	for i := 0; i < n; i++ {
		k, err := w.r.str()
		if err != nil {
			return typ, false, err
		}
		v, err := w.r.value()
		if err != nil {
			return typ, false, err
		}
		if k == typeKey {
			typ, ok = v, true
		}
	}
	return typ, ok, nil
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
	w.strs[s].hit[c] = int32(len(w.hits))
}

// relation reads one relation and records its edge; an endpoint no
// element declares becomes a node.
func (w *indexWalk) relation() error {
	id, err := w.r.str()
	if err != nil {
		return err
	}
	kind, err := w.r.str()
	if err != nil {
		return err
	}
	from, err := w.str()
	if err != nil {
		return err
	}
	to, err := w.str()
	if err != nil {
		return err
	}
	if _, err := w.r.time(); err != nil {
		return err
	}
	if _, _, err := w.attrs(); err != nil {
		return err
	}
	dangles := false
	for _, s := range [2]int32{from, to} {
		if bs := &w.strs[s]; bs.classes&allClasses == 0 {
			dangles = true
			if bs.classes == 0 {
				bs.classes = endpointBit
				w.addNode(s)
			}
		}
	}
	if dangles && !w.dangling.ok {
		w.dangling.ok = true
		w.dangling.str = [4]string{id, kind, w.r.tab[from], w.r.tab[to]}
	}
	w.edges = append(w.edges, edge{from, to})
	return nil
}

// sortNodes sorts the nodes by name, copies of one name by string, and
// reports whether two share a name.
func (w *indexWalk) sortNodes() (duplicates bool) {
	slices.SortFunc(w.nodes, func(a, b nodeKey) int {
		return cmp.Or(strings.Compare(a.name, b.name), cmp.Compare(a.str, b.str))
	})
	for i := 1; i < len(w.nodes); i++ {
		if w.nodes[i].name == w.nodes[i-1].name {
			return true
		}
	}
	return false
}

// canonicalize maps every node string to the first node string with
// the same name, for a second walk. The first is the smallest string,
// so the table holds it before any copy is read.
func (w *indexWalk) canonicalize() {
	w.canon = make([]int32, len(w.r.tab))
	for i := range w.canon {
		w.canon[i] = int32(i)
	}
	for i := 1; i < len(w.nodes); i++ {
		if k := w.nodes[i]; k.name == w.nodes[i-1].name {
			w.canon[k.str] = w.canon[w.nodes[i-1].str]
		}
	}
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

// census is the walk's counts and its live type hits, their types
// copied into one string.
func (w *indexWalk) census() Census {
	c := Census{Stats: Stats{Entities: w.counts[0], Activities: w.counts[1], Agents: w.counts[2], Relations: w.rels}}
	live := 0
	for _, h := range w.hits {
		if !h.dead {
			live++
		}
	}
	if live == 0 {
		return c
	}
	types := string(w.types)
	c.Types = make([]TypeHit, 0, live)
	for _, h := range w.hits {
		if !h.dead {
			c.Types = append(c.Types, TypeHit{types[h.off : h.off+h.n], w.strs[h.str].node, elementClasses[h.class]})
		}
	}
	return c
}
