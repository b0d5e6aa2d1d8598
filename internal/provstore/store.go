// Package provstore persists PROV documents into a sharded property-
// graph engine, mirroring the yProv service architecture (web front-end,
// graph database back-end). The store is split into N power-of-two
// shards keyed by a hash of the document id; each shard owns its own
// graphdb.Graph, document map, and lock, so uploads and lineage queries
// on different documents never contend. Cross-document operations fan
// out over the shards and merge with deterministic ordering. Each
// document's elements become labeled nodes and its relations become
// typed relationships, enabling multi-level lineage queries across
// uploaded documents. Every write — a local Apply, a replicated record,
// a record replayed at recovery — runs through one mutation pipeline
// (mutation.go).
package provstore

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/graphdb"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/wal"
)

// Store is a document store over sharded property graphs. Stores built
// with New/NewSharded are purely in-memory; stores built with Open
// additionally journal every mutation to a single write-ahead log (see
// journal.go) — global sequencing, per-shard application — and recover
// their state on construction.
type Store struct {
	shards []*shard
	mask   uint32 // len(shards)-1; shard counts are powers of two

	// Durability (nil/zero for in-memory stores).
	wal           *wal.Log
	lastApplied   atomic.Uint64 // journal seq high-water mark across shards
	snapshotEvery int
	mutations     uint64       // atomic: mutation count driving snapshot cadence
	snapErrs      uint64       // atomic: failed background checkpoints
	lastSnapErr   atomic.Value // string: most recent checkpoint failure
	suspectBitRot bool         // recovery truncated ahead of intact frames
	follower      bool         // read-only apply mode (see replica.go)
	snapMu        sync.Mutex

	// memSeq numbers mutations on in-memory stores so per-shard read
	// watermarks stay monotone without a journal (see watermark.go).
	memSeq atomic.Uint64

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
// lock-wait histogram, per-shard cumulative wait counters, document /
// applied-sequence gauges, and — for journaled stores — the WAL's own
// instruments plus snapshot-failure counts. Nil-safe on reg.
func (s *Store) RegisterObs(reg *obs.Registry) {
	reg.RegisterHistogram("yprov_shard_lock_wait_seconds",
		"Time mutations wait for their shard's write lock.", nil, s.lockWait)
	for i := range s.shards {
		sh := s.shards[i]
		reg.RegisterCounterFunc("yprov_shard_lock_wait_seconds_total",
			"Cumulative mutation wait per shard lock.",
			obs.Labels{"shard": strconv.Itoa(i)},
			func() float64 { return float64(sh.lockWaitNanos.Load()) * 1e-9 })
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
	}
}

// Put stores (or replaces) a document under id; the store keeps its
// own deep copy. It is Apply with one op and no deadline.
func (s *Store) Put(id string, doc *prov.Document) error {
	if doc == nil {
		return fmt.Errorf("provstore: put %q: no document", id)
	}
	return s.Apply(context.Background(), []Op{{ID: id, Doc: doc}})
}

// Get returns a copy of the stored document.
func (s *Store) Get(id string) (*prov.Document, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.docs[id]
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}

// Delete removes a document and its graph projection; a missing id is
// an error. It is Apply with one op and no deadline.
func (s *Store) Delete(id string) error {
	return s.Apply(context.Background(), []Op{{ID: id}})
}

// nodeID resolves (doc, qname) to the graph node on the owning shard.
func (s *Store) nodeID(doc string, q prov.QName) (*shard, graphdb.NodeID, bool) {
	sh := s.shardFor(doc)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	nodes, ok := sh.roots[doc]
	if !ok {
		return sh, 0, false
	}
	nid, ok := nodes[q]
	return sh, nid, ok
}

// LineageDirection selects ancestors (toward origins) or descendants.
type LineageDirection string

// Directions accepted by Lineage.
const (
	Ancestors   LineageDirection = "ancestors"
	Descendants LineageDirection = "descendants"
)

// Lineage returns the qualified names reachable from node in the given
// direction within depth hops (depth <= 0 = unbounded), sorted.
// PROV relation edges point from subject toward object — toward origins
// — so ancestors follow outgoing edges. The traversal runs entirely on
// the shard owning the document; queries on other shards proceed in
// parallel.
func (s *Store) Lineage(doc string, node prov.QName, dir LineageDirection, depth int) ([]prov.QName, error) {
	sh, nid, ok := s.nodeID(doc, node)
	if !ok {
		return nil, fmt.Errorf("provstore: node %s not found in document %q", node, doc)
	}
	gdir := graphdb.Outgoing
	if dir == Descendants {
		gdir = graphdb.Incoming
	} else if dir != Ancestors {
		return nil, fmt.Errorf("provstore: bad lineage direction %q", dir)
	}
	ids := sh.g.Closure(nid, gdir, "", depth)
	// Batch-resolve qualified names: one lock acquisition, no node clones.
	// Nodes deleted by a concurrent Put/Delete resolve to "" and are
	// skipped, as the old per-node lookup did.
	out := make([]prov.QName, 0, len(ids))
	for _, qn := range sh.g.StringProps(ids, "qname") {
		if qn != "" {
			out = append(out, prov.QName(qn))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Subgraph extracts the neighborhood of node within hops as a document.
// The node set is discovered with an undirected graph traversal (the
// document's relations never leave its own graph projection, which
// lives wholly on one shard), then the stored document is induced onto
// it.
func (s *Store) Subgraph(doc string, node prov.QName, hops int) (*prov.Document, error) {
	sh := s.shardFor(doc)
	sh.mu.RLock()
	d, ok := sh.docs[doc]
	nid, found := sh.roots[doc][node]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("provstore: document %q does not exist", doc)
	}
	if !found {
		return nil, fmt.Errorf("provstore: node %s not found in document %q", node, doc)
	}
	nodes := []prov.QName{node}
	if hops > 0 {
		ids := sh.g.Closure(nid, graphdb.Both, "", hops)
		for _, qn := range sh.g.StringProps(ids, "qname") {
			if qn != "" { // node deleted by a concurrent writer
				nodes = append(nodes, prov.QName(qn))
			}
		}
	}
	return d.Subgraph(nodes), nil
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
// every shard and merged in (Doc, Node) order.
func (s *Store) FindByType(typeName string) []SearchResult {
	return s.searchShards("prov:type", typeName)
}

// FindByAttr returns elements with attribute key equal to value across
// all documents. Key is the raw PROV attribute name (e.g. "provml:name").
func (s *Store) FindByAttr(key string, value interface{}) []SearchResult {
	return s.searchShards(key, value)
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
		// All three counts must come from the same instant: a put holds
		// the shard write lock across both the docs map and the graph
		// projection, so reading the graph counts after dropping the
		// RLock could pair docs=N with the nodes of N+1 documents.
		sh.mu.RLock()
		st.Documents += len(sh.docs)
		st.Nodes += sh.g.NodeCount()
		st.Rels += sh.g.RelCount()
		sh.mu.RUnlock()
	}
	if s.wal != nil {
		st.Durability = &DurabilityStats{
			Stats:          s.wal.Stats(),
			SnapshotEvery:  s.snapshotEvery,
			SnapshotErrors: atomic.LoadUint64(&s.snapErrs),
			SuspectBitRot:  s.suspectBitRot,
			FailStop:       s.FailStop(),
		}
		if msg, ok := s.lastSnapErr.Load().(string); ok {
			st.Durability.LastSnapshotError = msg
		}
	}
	return st
}
