package provstore

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graphdb"
	"repro/internal/prov"
)

// shard is one independent slice of the store: its own property graph,
// document map, and lock. Documents are assigned to shards by a stable
// hash of their id (see shardIndex), so operations on documents that
// land on different shards never contend — the divide-and-conquer that
// lets uploads and lineage queries scale across cores.
type shard struct {
	mu    sync.RWMutex
	g     *graphdb.Graph
	docs  map[string]*prov.Document
	roots map[string]map[prov.QName]graphdb.NodeID // docID -> element -> node

	// lockWaitNanos accumulates how long mutations waited for mu, the
	// per-shard contention signal behind the
	// yprov_shard_lock_wait_seconds_total series.
	lockWaitNanos atomic.Int64

	// applied is the shard's read watermark: the sequence of the newest
	// mutation applied here (journal seq on durable stores, Store.memSeq
	// tick on in-memory ones). Reads validate cached responses against
	// the max watermark of the shards they touch — see watermark.go.
	applied atomic.Uint64
}

// noteApplied raises the shard's read watermark to seq. Mutations on
// the same shard are serialized by mu, but recovery and concurrent
// callers may race, so the maximum is taken with a CAS loop.
func (sh *shard) noteApplied(seq uint64) {
	for {
		cur := sh.applied.Load()
		if seq <= cur || sh.applied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// newShard builds an empty shard with the indexes every lineage/search
// query relies on.
func newShard() *shard {
	g := graphdb.New()
	for _, label := range []string{"Entity", "Activity", "Agent"} {
		g.CreateIndex(label, "qname")
		g.CreateIndex(label, "doc")
		g.CreateIndex(label, "prov:type")
	}
	return &shard{
		g:     g,
		docs:  make(map[string]*prov.Document),
		roots: make(map[string]map[prov.QName]graphdb.NodeID),
	}
}

// relTypes caches the graph relationship type for every PROV relation
// kind; ToUpper on the hot projection path both allocated and burned
// cycles per relation.
var relTypes = func() map[prov.RelationKind]string {
	m := make(map[prov.RelationKind]string, len(prov.AllRelationKinds))
	for _, k := range prov.AllRelationKinds {
		m[k] = strings.ToUpper(string(k))
	}
	return m
}()

// relTypeFor maps PROV relation kinds to graph relationship types.
func relTypeFor(kind prov.RelationKind) string {
	if t, ok := relTypes[kind]; ok {
		return t
	}
	return strings.ToUpper(string(kind))
}

// Shared immutable label slices handed to CreateNodeOwned. graphdb
// never mutates node labels, so every projection of the same class can
// share one slice instead of allocating per element.
var (
	labelEntity   = []string{"Entity"}
	labelActivity = []string{"Activity"}
	labelAgent    = []string{"Agent"}
)

// putLocked applies a validated document to the shard's in-memory
// state, all-or-nothing: the new graph projection is built first and
// torn back down on any error, and the old document is replaced only on
// success. With owned the shard keeps doc itself — decoded journal and
// replication records nothing else references, which lets recovery and
// follower apply run allocation-proportional to the decode, not twice
// it; otherwise the caller keeps ownership and the shard stores a deep
// clone. sh.mu must be held exclusively.
func (sh *shard) putLocked(id string, doc *prov.Document, owned bool) (err error) {
	nodeCount := len(doc.Entities) + len(doc.Activities) + len(doc.Agents)
	nodes := make(map[prov.QName]graphdb.NodeID, nodeCount)
	defer func() {
		if err != nil {
			for _, nid := range nodes {
				_ = sh.g.DeleteNode(nid) // cascades relationships
			}
		}
	}()

	// One boxed copy of the doc id serves every node and relation
	// property map instead of re-boxing the string per element.
	var docVal interface{} = id

	addElement := func(labels []string, el *prov.Element, extra graphdb.Props) error {
		props := make(graphdb.Props, len(el.Attrs)+len(extra)+2)
		props["qname"] = string(el.ID)
		props["doc"] = docVal
		for k, v := range el.Attrs {
			props[k] = attrPropValue(v)
		}
		for k, v := range extra {
			props[k] = v
		}
		// The freshly built map is handed over — the Owned variants skip
		// graphdb's defensive copies on this hot path. The label slice is
		// shared and immutable (graphdb never mutates labels).
		nid, err := sh.g.CreateNodeOwned(labels, props)
		if err != nil {
			return err
		}
		nodes[el.ID] = nid
		return nil
	}

	for _, qid := range doc.EntityIDs() {
		if err := addElement(labelEntity, doc.Entities[qid], nil); err != nil {
			return err
		}
	}
	for _, qid := range doc.ActivityIDs() {
		a := doc.Activities[qid]
		var extra graphdb.Props
		if !a.StartTime.IsZero() || !a.EndTime.IsZero() {
			extra = make(graphdb.Props, 2)
			if !a.StartTime.IsZero() {
				extra["startTime"] = a.StartTime.UnixNano()
			}
			if !a.EndTime.IsZero() {
				extra["endTime"] = a.EndTime.UnixNano()
			}
		}
		if err := addElement(labelActivity, &a.Element, extra); err != nil {
			return err
		}
	}
	for _, qid := range doc.AgentIDs() {
		if err := addElement(labelAgent, doc.Agents[qid], nil); err != nil {
			return err
		}
	}
	// Timeless relations all carry the identical {"doc": id} property
	// bag, and graphdb never mutates relationship props after creation,
	// so one shared map serves every such edge of the document.
	var sharedRelProps graphdb.Props
	for _, rel := range doc.Relations {
		from, ok1 := nodes[rel.Subject]
		to, ok2 := nodes[rel.Object]
		if !ok1 || !ok2 {
			return fmt.Errorf("provstore: relation %s references unknown nodes", rel.ID)
		}
		var props graphdb.Props
		if rel.Time.IsZero() {
			if sharedRelProps == nil {
				sharedRelProps = graphdb.Props{"doc": docVal}
			}
			props = sharedRelProps
		} else {
			props = graphdb.Props{"doc": docVal, "time": rel.Time.UnixNano()}
		}
		if _, err := sh.g.CreateRelOwned(from, to, relTypeFor(rel.Kind), props); err != nil {
			return err
		}
	}

	if _, exists := sh.docs[id]; exists {
		sh.deleteLocked(id)
	}
	if owned {
		sh.docs[id] = doc
	} else {
		sh.docs[id] = doc.Clone()
	}
	sh.roots[id] = nodes
	return nil
}

// deleteLocked removes a document's projection. sh.mu must be held
// exclusively.
func (sh *shard) deleteLocked(id string) {
	for _, nid := range sh.roots[id] {
		_ = sh.g.DeleteNode(nid) // cascades relationships
	}
	delete(sh.roots, id)
	delete(sh.docs, id)
}

// attrPropValue flattens prov values into graph property scalars.
func attrPropValue(v prov.Value) interface{} {
	switch v.Kind() {
	case prov.KindInt:
		i, _ := v.AsInt()
		return i
	case prov.KindFloat:
		f, _ := v.AsFloat()
		return f
	case prov.KindBool:
		b, _ := v.AsBool()
		return b
	default:
		return v.AsString()
	}
}
