// Package provstore is the storage engine of the yProv service stand-in
// (web front-end over a provenance store): it keeps uploaded PROV
// documents and answers multi-level lineage queries over them. The store
// is split into N power-of-two shards keyed by a hash of the document
// id; each shard owns its own entry map and lock, so uploads and lineage
// queries on different documents never contend. A stored document is
// one immutable entry — the prov.Index built from the document when it
// was written, plus the document's binary encoding, the same bytes its
// journal record carries and every snapshot stores — so a replace or
// delete swaps or drops a pointer, and a read fetches the pointer under
// the shard's read lock and traverses unlocked: one lock level, work
// proportional to the document, exactly one version seen. No entry
// holds a decoded document. Lineage, type search and cross-document
// traversal answer from the index and what the entry extracted when it
// was built, attribute search walks the blob in place, and the few
// reads that need the document itself decode the blob
// (entry.document). Cross-document operations fan out over the shards
// and merge with deterministic ordering. Every write — a local Apply, a
// replicated record, a record replayed at recovery — runs through one
// mutation pipeline (mutation.go).
//
// There is one notion of version. Every mutation has a sequence: its
// journal record's, or on an in-memory store the next tick of the same
// counter. The store's applied counter is the newest sequence visible
// to readers (Version) and is what a store-wide read — list, search,
// cross-document lineage — validates against. Each entry carries the
// sequence it was installed under (View.Seq), and that is the version
// of every read of that one document: it changes when the document is
// replaced or deleted and re-created, and at no other time.
package provstore

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/wal"
)

// Store is a sharded document store. Stores built
// with New/NewSharded are purely in-memory; stores built with Open
// additionally journal every mutation to a single write-ahead log (see
// journal.go) — global sequencing, per-shard application — and recover
// their state on construction.
type Store struct {
	shards []*shard
	mask   uint32 // len(shards)-1; shard counts are powers of two

	// Durability (nil/zero for in-memory stores).
	wal *wal.Log
	// lastApplied is the applied counter (see Version): journal
	// sequences on a journaled store; an in-memory store numbers its
	// mutations from it directly.
	lastApplied   atomic.Uint64
	snapshotEvery int
	mutations     uint64       // atomic: mutation count driving snapshot cadence
	snapErrs      uint64       // atomic: failed background checkpoints
	lastSnapErr   atomic.Value // string: most recent checkpoint failure
	suspectBitRot bool         // recovery truncated ahead of intact frames
	follower      bool         // read-only apply mode (see replica.go)
	snapMu        sync.Mutex

	// recovery is what Open read back, and how long it took.
	recovery RecoveryStats

	// What checkpoints cost, as RegisterObs and Stats report it: time per
	// checkpoint, the documents put into snapshots and the snapshot
	// payload bytes written. Always live, like lockWait.
	checkpointTime      *obs.Histogram
	lastCheckpointNanos atomic.Int64
	checkpointDocs      atomic.Uint64
	checkpointBytes     atomic.Uint64

	// lockWait is the store-wide shard-lock wait histogram (per-shard
	// cumulative counters live on the shards). Always live; RegisterObs
	// exposes it.
	lockWait *obs.Histogram

	// applyObs, when set (before any concurrent use — see
	// SetApplyObserver), is invoked after each successfully applied
	// replicated record; followers hook their apply log here.
	applyObs func(seq uint64, op, trace string)
}

// New returns an empty store with the default shard count (GOMAXPROCS
// rounded up to a power of two).
func New() *Store {
	return NewSharded(0)
}

// NewSharded returns an empty store with n shards. n is rounded up to
// a power of two and capped at 256 (see maxShards); n <= 0 selects the
// default (GOMAXPROCS). NewSharded(1) is the single-lock layout of
// earlier revisions.
func NewSharded(n int) *Store {
	if n <= 0 {
		n = defaultShardCount()
	}
	n = roundPow2(n)
	s := &Store{
		shards:   make([]*shard, n),
		mask:     uint32(n - 1),
		lockWait: obs.NewDurationHistogram().EnableExemplars(),

		checkpointTime: obs.NewDurationHistogram(),
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	return s
}

// SetApplyObserver installs fn to run after every successfully applied
// replicated record (see ApplyReplicated). It must be called before
// the store sees concurrent use — NewFollower does so during setup.
func (s *Store) SetApplyObserver(fn func(seq uint64, op, trace string)) {
	s.applyObs = fn
}

// RegisterObs exposes the store's instruments on reg: the shard
// lock-wait histogram, per-shard cumulative wait counters and resident
// bytes, document / applied-sequence gauges, and — for journaled
// stores — the WAL's own instruments, snapshot-failure counts and what
// checkpoints cost (time, bytes written). Nil-safe on reg.
func (s *Store) RegisterObs(reg *obs.Registry) {
	reg.RegisterHistogram("yprov_shard_lock_wait_seconds",
		"Time mutations wait for their shard's write lock.", nil, s.lockWait)
	for i := range s.shards {
		sh := s.shards[i]
		reg.RegisterCounterFunc("yprov_shard_lock_wait_seconds_total",
			"Cumulative mutation wait per shard lock.",
			obs.Labels{"shard": strconv.Itoa(i)},
			func() float64 { return float64(sh.lockWaitNanos.Load()) * 1e-9 })
		for _, p := range []struct {
			part  string
			bytes *atomic.Int64
		}{{"blob", &sh.blobBytes}, {"index", &sh.indexBytes}} {
			reg.RegisterGaugeFunc("yprov_store_resident_bytes",
				"Bytes the shard's stored documents keep resident: binary blobs and traversal index arrays.",
				obs.Labels{"shard": strconv.Itoa(i), "part": p.part},
				func() float64 { return float64(p.bytes.Load()) })
		}
	}
	reg.RegisterGaugeFunc("yprov_store_documents",
		"Documents currently stored.", nil,
		func() float64 { return float64(s.Count()) })
	reg.RegisterGaugeFunc("yprov_store_applied_seq",
		"Journal sequence high-water mark applied to the store.", nil,
		func() float64 { return float64(s.AppliedSeq()) })
	if s.wal != nil {
		s.wal.RegisterObs(reg)
		reg.RegisterCounterFunc("yprov_store_snapshot_errors_total",
			"Failed background checkpoints.", nil,
			func() float64 { return float64(atomic.LoadUint64(&s.snapErrs)) })
		reg.RegisterHistogram("yprov_store_checkpoint_seconds",
			"Time per checkpoint: capture, snapshot write, compaction.", nil, s.checkpointTime)
		reg.RegisterCounterFunc("yprov_store_checkpoint_bytes_total",
			"Snapshot payload bytes written by checkpoints.", nil,
			func() float64 { return float64(s.checkpointBytes.Load()) })
	}
}

// Put stores (or replaces) a document under id; doc stays the
// caller's, who may change it once Put returns. It is Apply with one
// op, doc's validated encoding (docOp), and no deadline.
func (s *Store) Put(id string, doc *prov.Document) error {
	if doc == nil {
		return fmt.Errorf("provstore: put %q: no document", id)
	}
	op, err := docOp(id, doc)
	if err != nil {
		return err
	}
	return s.Apply(context.Background(), []Op{op})
}

// View is a read handle on one stored version of a document: the
// version number, the document and every traversal come from the one
// immutable entry the handle was made from, so they agree with each
// other whatever is written meanwhile. The View of an id that is not
// stored is empty: Seq is 0, Document nil, and the traversals report
// the id as missing.
type View struct {
	id string
	e  *entry
}

// View returns the handle on id's current version; false, and the
// empty View, when id is not stored. It is the store's one
// single-document lookup: a read lock on the owning shard for the
// length of a map access.
func (s *Store) View(id string) (View, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e := sh.docs[id]
	sh.mu.RUnlock()
	return View{id: id, e: e}, e != nil
}

// Seq is the sequence the viewed version was installed under — the
// version single-document reads validate against. Successive versions
// of one id carry increasing values, also across delete and re-create.
func (v View) Seq() uint64 {
	if v.e == nil {
		return 0
	}
	return v.e.seq
}

// Document returns the viewed version's document, decoded from the
// entry's blob on every call: the caller's to keep and change. Only the
// explorer decodes (provgraph renders a *prov.Document); JSON and
// Subgraph write PROV-JSON from the blob.
func (v View) Document() *prov.Document {
	if v.e == nil {
		return nil
	}
	return v.e.document()
}

// JSON returns the viewed version's document as indented PROV-JSON,
// written from the entry's blob (prov.DocumentJSON); nil when the view
// holds no version.
func (v View) JSON() ([]byte, error) {
	if v.e == nil {
		return nil, nil
	}
	return prov.DocumentJSON(v.e.blob)
}

// Lineage returns the qualified names reachable from node in the given
// direction within depth hops (depth <= 0 = unbounded), sorted.
// PROV relation edges point from subject toward object — toward origins
// — so ancestors follow them forward. The traversal runs on the
// version's own index, outside every lock.
func (v View) Lineage(node prov.QName, dir LineageDirection, depth int) ([]prov.QName, error) {
	pdir := prov.Forward
	if dir == Descendants {
		pdir = prov.Reverse
	} else if dir != Ancestors {
		return nil, fmt.Errorf("provstore: bad lineage direction %q", dir)
	}
	if v.e != nil {
		if reach, ok := v.e.ix.Reach(node, pdir, depth); ok {
			return reach, nil
		}
	}
	return nil, fmt.Errorf("provstore: node %s not found in document %q", node, v.id)
}

// Subgraph returns the neighborhood of node within hops, ignoring edge
// direction, as indented PROV-JSON; hops <= 0 selects the node alone.
// The index finds the nodes (Reach), and one walk of the blob writes
// the elements and relations they induce (prov.SubgraphJSON).
func (v View) Subgraph(node prov.QName, hops int) ([]byte, error) {
	if v.e == nil {
		return nil, fmt.Errorf("provstore: document %q does not exist", v.id)
	}
	if !v.e.ix.Has(node) {
		return nil, fmt.Errorf("provstore: node %s not found in document %q", node, v.id)
	}
	var nodes []prov.QName
	if hops > 0 {
		nodes, _ = v.e.ix.Reach(node, prov.Undirected, hops)
	}
	return prov.SubgraphJSON(v.e.blob, append(nodes, node))
}

// LineageDirection selects ancestors (toward origins) or descendants.
type LineageDirection string

// Directions accepted by Lineage.
const (
	Ancestors   LineageDirection = "ancestors"
	Descendants LineageDirection = "descendants"
)

// Lineage is View.Lineage on doc's current version.
func (s *Store) Lineage(doc string, node prov.QName, dir LineageDirection, depth int) ([]prov.QName, error) {
	v, _ := s.View(doc)
	return v.Lineage(node, dir, depth)
}

// SearchResult is one match of a cross-document search.
type SearchResult struct {
	Doc   string
	Node  prov.QName
	Class string // Entity / Activity / Agent
}

// FindByType returns all elements whose prov:type attribute equals
// typeName, across every stored document. This is the "knowledge base
// of previous runs" query of the paper's §3.2/§3.4, fanned out over
// every shard and merged in (Doc, Node, Class) order. It reads no
// document: the shards' postings name the entries, and each entry lists
// its elements' types from when it was built.
func (s *Store) FindByType(typeName string) []SearchResult {
	return s.search(typeKey, typeName)
}

// FindByAttr returns elements with attribute key equal to value across
// all documents. Key is the raw PROV attribute name (e.g.
// "provml:name"), or one of two synthetic keys: "qname" (the element's
// qualified name) and "doc" (the id of the document holding it).
// Equality is typed — see attrMatches. Every key but prov:type scans
// the store and walks every document's blob in place, decoding none
// (see entry). The int64 "startTime"/"endTime" keys of the former graph
// projection, which no HTTP request could reach (query values arrive
// as strings), are gone.
func (s *Store) FindByAttr(key string, value interface{}) []SearchResult {
	return s.search(key, value)
}

// Stats summarizes the store. Durability is nil for in-memory stores.
type Stats struct {
	Documents  int
	Nodes      int
	Rels       int
	Shards     int
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// Stats returns store-wide counts (plus journal state when durable),
// summed across shards.
func (s *Store) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		// One RLock for all three, so the counts come from the same
		// instant.
		sh.mu.RLock()
		st.Documents += len(sh.docs)
		st.Nodes += sh.nodes
		st.Rels += sh.rels
		sh.mu.RUnlock()
	}
	if s.wal != nil {
		st.Durability = &DurabilityStats{
			Stats:          s.wal.Stats(),
			SnapshotEvery:  s.snapshotEvery,
			SnapshotErrors: atomic.LoadUint64(&s.snapErrs),
			SuspectBitRot:  s.suspectBitRot,
			FailStop:       s.FailStop(),

			LastCheckpointMs: float64(s.lastCheckpointNanos.Load()) / 1e6,
			CheckpointDocs:   s.checkpointDocs.Load(),
			Recovery:         s.recovery,
		}
		if msg, ok := s.lastSnapErr.Load().(string); ok {
			st.Durability.LastSnapshotError = msg
		}
	}
	return st
}
