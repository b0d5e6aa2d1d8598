package provstore

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Shard routing. A document lives on exactly one shard, chosen by a
// stable FNV-1a hash of its id masked down to the (power-of-two) shard
// count. The assignment is recomputed from the id wherever it is
// needed — including journal recovery — so a data directory written
// under one -shards value opens correctly under any other: the hash is
// the source of truth, the shard id recorded per journal record is a
// write-time hint for observability and debugging.

// maxShards bounds the shard count; beyond this, fan-out bookkeeping
// costs more than the contention it removes.
const maxShards = 256

// defaultShardCount picks GOMAXPROCS rounded up to a power of two.
func defaultShardCount() int {
	return roundPow2(runtime.GOMAXPROCS(0))
}

// roundPow2 rounds n up to the next power of two in [1, maxShards].
func roundPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	return p
}

// shardHash is FNV-1a over the document id.
func shardHash(id string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * prime32
	}
	return h
}

// shardIndex maps a document id to its shard slot.
func (s *Store) shardIndex(id string) uint32 {
	return shardHash(id) & s.mask
}

// shardFor returns the shard owning id.
func (s *Store) shardFor(id string) *shard {
	return s.shards[s.shardIndex(id)]
}

// ShardCount reports how many shards the store was built with.
func (s *Store) ShardCount() int { return len(s.shards) }

// List returns stored document ids in sorted order, fanning out over
// every shard. The merged sort makes the result deterministic
// regardless of shard count or layout.
func (s *Store) List() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.docs {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Count returns the number of stored documents across all shards.
func (s *Store) Count() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// eachEntry calls fn for every stored entry. Each shard's entries are
// collected under a brief read lock and visited outside it; the view is
// per-shard consistent, the unit cross-document queries reason about.
func (s *Store) eachEntry(fn func(*entry)) {
	var batch []*entry
	for _, sh := range s.shards {
		batch = sh.entries(batch[:0])
		for _, e := range batch {
			fn(e)
		}
	}
}

// search returns the elements whose attribute key equals want, in
// (Doc, Node, Class) order so the output is identical for any shard
// count: a node declared in two classes is two results. A string search
// on prov:type visits only the documents the shards' type postings name
// and answers from the prov:type hits each entry keeps; any other walks
// every document's blob.
func (s *Store) search(key string, want interface{}) []SearchResult {
	var out []SearchResult
	if typeName, ok := want.(string); ok && key == typeKey {
		var batch []*entry
		for _, sh := range s.shards {
			batch = batch[:0]
			sh.mu.RLock()
			for id := range sh.byType[typeName] {
				batch = append(batch, sh.docs[id])
			}
			sh.mu.RUnlock()
			for _, e := range batch {
				out = e.appendTypeMatches(out, typeName)
			}
		}
	} else {
		s.eachEntry(func(e *entry) { out = e.appendMatches(out, key, want) })
	}
	slices.SortFunc(out, compareResults)
	return out
}

// compareResults orders search results by document, node and class.
func compareResults(a, b SearchResult) int {
	return cmp.Or(strings.Compare(a.Doc, b.Doc), strings.Compare(string(a.Node), string(b.Node)), strings.Compare(a.Class, b.Class))
}
