package provstore

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/prov"
)

// typeKey is the one attribute FindByType asks about, and the one the
// shards keep postings for.
const typeKey = "prov:type"

// entry is one stored version of a document: its traversal index, what
// the store answers without the document (counts, prov:type hits), the
// sequence it was installed under, and the document's binary encoding.
// Every field is set before the entry is installed and none changes
// after: a reader fetches the pointer under the shard's read lock and
// works on it unlocked, and sees exactly one version, and that
// version's number, however the id is replaced or deleted meanwhile.
// An entry is built from the blob alone (newEntry); attribute search
// walks the blob in place, and the reads that need the document decode
// it (entry.document).
type entry struct {
	id string
	ix *prov.Index
	// seq is the sequence of the mutation that installed the entry: its
	// journal record's, the snapshot's for a document recovered from one,
	// a tick of the store's applied counter on an in-memory store.
	// Store.apply writes it after staging and before installing the
	// entry. It is not persisted: replay reads it off the record or
	// snapshot that carries the document.
	seq uint64
	// nodes and rels are the document's element (per class) and relation
	// counts.
	nodes, rels int
	// types lists every element whose prov:type has a string form: what
	// FindByType answers, and the keys of the entry's shard.byType posts.
	types []prov.TypeHit
	// blob is the document's binary encoding (prov.AppendBinary), exactly
	// sized (cap == len): the bytes the entry's journal record carries
	// and every snapshot stores. A blob belongs to its entry and entries
	// are swapped, never edited, so a blob cannot outlive the version it
	// encodes.
	blob []byte
}

// newEntry builds the entry storing the document blob encodes under id,
// from the blob alone: prov.IndexBinary gives the index, the counts and
// the prov:type hits. The entry keeps blob, which must be exactly sized
// and the caller's no longer: a put's Op.Blob, or a copy of a record's
// or snapshot's blob. A relation naming an element the document does
// not declare is an error: it is the one check of a document that
// Apply makes (writers validate before, prov.TranscodeJSON as it
// encodes), and a replicated or replayed record gets no other.
func newEntry(id string, blob []byte) (*entry, error) {
	ix, census, err := prov.IndexBinary(blob)
	if err != nil {
		return nil, err
	}
	if r := ix.Dangling(); r != nil {
		return nil, fmt.Errorf("relation %s references unknown nodes", r.ID)
	}
	return &entry{
		id:    id,
		ix:    ix,
		nodes: census.Entities + census.Activities + census.Agents,
		rels:  census.Relations,
		types: census.Types,
		blob:  blob,
	}, nil
}

// keepBlob returns an exactly sized copy of scratch, a blob encoded
// into a pooled record buffer, and pools the buffer again: append's
// slack would stay live with the entry.
func keepBlob(scratch []byte) []byte {
	blob := make([]byte, len(scratch))
	copy(blob, scratch)
	putOpBuf(scratch)
	return blob
}

// document decodes the entry's blob: a document nobody else
// references.
func (e *entry) document() *prov.Document {
	doc, err := prov.ParseBinary(e.blob)
	if err != nil {
		// The entry was built by indexing the blob, and ParseBinary
		// accepts every blob IndexBinary does: it cannot fail to decode.
		panic(fmt.Sprintf("provstore: stored blob of %q does not decode: %v", e.id, err))
	}
	return doc
}

// appendTypeMatches appends the elements whose prov:type has the string
// form want.
func (e *entry) appendTypeMatches(out []SearchResult, want string) []SearchResult {
	for _, h := range e.types {
		if h.Type == want {
			out = append(out, SearchResult{Doc: e.id, Node: e.ix.Name(h.Node), Class: h.Class})
		}
	}
	return out
}

// appendMatches appends the elements whose attribute key equals want.
// Two keys are synthetic: "qname" is the element's qualified name and
// "doc" the document id (an attribute of that name shadows them). It
// walks the blob in place (prov.ElementAttr) and decodes nothing.
func (e *entry) appendMatches(out []SearchResult, key string, want interface{}) []SearchResult {
	err := prov.ElementAttr(e.blob, key, func(class string, id prov.QName, v prov.Value, ok bool) {
		switch {
		case ok:
		case key == "qname":
			v = prov.Str(string(id))
		case key == "doc":
			v = prov.Str(e.id)
		default:
			return
		}
		if attrMatches(v, want) {
			// id is a view of the blob: the result gets a copy.
			out = append(out, SearchResult{Doc: e.id, Node: prov.QName(strings.Clone(string(id))), Class: class})
		}
	})
	if err != nil {
		// IndexBinary walked the same blob when it built the entry.
		panic(fmt.Sprintf("provstore: stored blob of %q does not walk: %v", e.id, err))
	}
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
		s, ok := v.StringForm()
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
	// blobBytes and indexBytes total the entries' blobs and index
	// arrays: what the shard keeps resident, read unlocked by the
	// yprov_store_resident_bytes gauges.
	blobBytes, indexBytes atomic.Int64

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

// swap installs e under id, in place of the entry the id held; nil
// deletes. sh.mu must be held exclusively.
func (sh *shard) swap(id string, e *entry) {
	if prev := sh.docs[id]; prev != nil {
		sh.account(prev, -1)
		for _, h := range prev.types {
			delete(sh.byType[h.Type], id)
			if len(sh.byType[h.Type]) == 0 {
				delete(sh.byType, h.Type)
			}
		}
	}
	if e == nil {
		delete(sh.docs, id)
		return
	}
	sh.docs[id] = e
	sh.account(e, 1)
	for _, h := range e.types {
		if sh.byType[h.Type] == nil {
			sh.byType[h.Type] = make(map[string]struct{})
		}
		sh.byType[h.Type][id] = struct{}{}
	}
}

// account adds (sign 1) or removes (sign -1) e's element and relation
// counts and resident bytes.
func (sh *shard) account(e *entry, sign int) {
	sh.nodes += sign * e.nodes
	sh.rels += sign * e.rels
	sh.blobBytes.Add(int64(sign * len(e.blob)))
	sh.indexBytes.Add(int64(sign * e.ix.Bytes()))
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
