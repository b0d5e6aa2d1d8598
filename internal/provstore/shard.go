package provstore

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/prov"
)

// typeKey is the one attribute FindByType asks about, and the one the
// shards keep postings for.
const typeKey = "prov:type"

// entry is one stored version of a document: the document, the
// traversal index built from it and the sequence it was installed
// under. All are immutable from the moment the entry is installed in a
// shard, so a reader fetches the pointer under the shard's read lock and
// works on it unlocked — it sees exactly one version, and that version's
// number, however the id is replaced or deleted meanwhile. The one
// exception is blob, which no reader may touch.
type entry struct {
	id  string
	doc *prov.Document
	ix  *prov.Index
	// seq is the sequence of the mutation that installed the entry: its
	// journal record's, the snapshot's for a document recovered from one,
	// a tick of the store's applied counter on an in-memory store.
	// Store.apply writes it after staging and before the shard locks
	// drop, so it is set before any reader can reach the entry. It is
	// not persisted: replay reads it off the record or snapshot that
	// carries the document.
	seq uint64
	// types lists the distinct string values of the elements' prov:type
	// attribute, the keys this entry is posted under in shard.byType.
	types []string
	// blob is doc's binary encoding (prov.AppendBinary), exactly sized
	// (cap == len), as every snapshot stores it; nil until someone has
	// encoded the document. It is written once: by Store.apply when it
	// builds the entry for a recovered snapshot's document (mutation.blobs:
	// a copy of the bytes the document was decoded from), before the entry
	// is installed, or else by the first checkpoint that meets the entry.
	// Checkpoints (appendSnapshot, under Store.snapMu) are its only
	// readers and its only writers after installation. A blob belongs to
	// its entry and entries are swapped, never edited, so a blob cannot
	// outlive the version it encodes.
	blob []byte
}

// newEntry builds the entry storing doc under id; the entry keeps doc
// itself, which every mutation owns. A relation naming an element the
// document does not declare is an error: Apply's validation rejects it
// earlier, a replicated or replayed record gets no other check.
func newEntry(id string, doc *prov.Document) (*entry, error) {
	e := &entry{id: id, doc: doc, ix: prov.NewIndex(doc)}
	if r := e.ix.Dangling(); r != nil {
		return nil, fmt.Errorf("relation %s references unknown nodes", r.ID)
	}
	e.eachElement(func(_ string, el *prov.Element) {
		v, ok := el.Attrs[typeKey]
		if !ok {
			return
		}
		if t, ok := stringForm(v); ok && !slices.Contains(e.types, t) {
			e.types = append(e.types, t)
		}
	})
	return e, nil
}

// eachElement calls fn for every element with its class name.
func (e *entry) eachElement(fn func(class string, el *prov.Element)) {
	for _, el := range e.doc.Entities {
		fn("Entity", el)
	}
	for _, a := range e.doc.Activities {
		fn("Activity", &a.Element)
	}
	for _, el := range e.doc.Agents {
		fn("Agent", el)
	}
}

// appendMatches appends the elements whose attribute key equals want.
// Two keys are synthetic: "qname" is the element's qualified name and
// "doc" the document id (an attribute of that name shadows them).
func (e *entry) appendMatches(out []SearchResult, key string, want interface{}) []SearchResult {
	e.eachElement(func(class string, el *prov.Element) {
		v, ok := el.Attrs[key]
		switch {
		case ok:
		case key == "qname":
			v = prov.Str(string(el.ID))
		case key == "doc":
			v = prov.Str(e.id)
		default:
			return
		}
		if attrMatches(v, want) {
			out = append(out, SearchResult{Doc: e.id, Node: el.ID, Class: class})
		}
	})
	return out
}

// attrMatches is typed equality between an attribute value and a search
// operand: an int64 (or int) operand matches integer attributes, a
// float64 float attributes (bit for bit), a bool boolean ones, and a
// string every other kind by its string form — so the string "3" never
// matches the integer 3. Operands of any other type match nothing.
func attrMatches(v prov.Value, want interface{}) bool {
	switch w := want.(type) {
	case string:
		s, ok := stringForm(v)
		return ok && s == w
	case int:
		i, _ := v.AsInt()
		return v.Kind() == prov.KindInt && i == int64(w)
	case int64:
		i, _ := v.AsInt()
		return v.Kind() == prov.KindInt && i == w
	case float64:
		f, _ := v.AsFloat()
		return v.Kind() == prov.KindFloat && math.Float64bits(f) == math.Float64bits(w)
	case bool:
		b, ok := v.AsBool()
		return ok && b == w
	}
	return false
}

// stringForm is what a string operand is compared with: the string
// form of any value but a number or a boolean, which have none.
func stringForm(v prov.Value) (string, bool) {
	switch v.Kind() {
	case prov.KindInt, prov.KindFloat, prov.KindBool:
		return "", false
	}
	return v.AsString(), true
}

// shard is one independent slice of the store: its own entry map, type
// postings and lock. Documents are assigned to shards by a stable hash
// of their id (see shardIndex), so operations on documents that land on
// different shards never contend — the divide-and-conquer that lets
// uploads and lineage queries scale across cores.
type shard struct {
	mu   sync.RWMutex
	docs map[string]*entry
	// byType posts, per prov:type value, the ids of the documents with
	// such an element.
	byType map[string]map[string]struct{}
	// nodes and rels count the elements and relations of docs.
	nodes, rels int

	// lockWaitNanos accumulates how long mutations waited for mu, the
	// per-shard contention signal behind the
	// yprov_shard_lock_wait_seconds_total series.
	lockWaitNanos atomic.Int64
}

func newShard() *shard {
	return &shard{
		docs:   make(map[string]*entry),
		byType: make(map[string]map[string]struct{}),
	}
}

// swap installs e under id — nil deletes — and returns the entry it
// displaced, nil when the id was free. Putting the returned entry back
// with a second swap undoes the first exactly. sh.mu must be held
// exclusively.
func (sh *shard) swap(id string, e *entry) (prev *entry) {
	if prev = sh.docs[id]; prev != nil {
		sh.account(prev, -1)
		for _, t := range prev.types {
			delete(sh.byType[t], id)
			if len(sh.byType[t]) == 0 {
				delete(sh.byType, t)
			}
		}
	}
	if e == nil {
		delete(sh.docs, id)
		return prev
	}
	sh.docs[id] = e
	sh.account(e, 1)
	for _, t := range e.types {
		if sh.byType[t] == nil {
			sh.byType[t] = make(map[string]struct{})
		}
		sh.byType[t][id] = struct{}{}
	}
	return prev
}

// account adds (sign 1) or removes (sign -1) e's element and relation
// counts.
func (sh *shard) account(e *entry, sign int) {
	st := e.doc.Stats()
	sh.nodes += sign * (st.Entities + st.Activities + st.Agents)
	sh.rels += sign * st.Relations
}

// entries appends the shard's entries to buf under a brief read lock;
// the caller works on them unlocked.
func (sh *shard) entries(buf []*entry) []*entry {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, e := range sh.docs {
		buf = append(buf, e)
	}
	return buf
}
