// Package readcache is a version-keyed cache over encoded HTTP response
// bodies. Entries are keyed by a canonicalized query string plus the
// version the answer is valid at, which the caller supplies: for a read
// of one document the sequence that document's stored entry was
// installed under (provstore.View.Seq), for a store-wide read the
// store's applied counter (provstore.Store.Version). Either moves
// exactly when the state the query can observe does, and never
// backwards, so a lookup whose version equals the stored one observes
// identical state: hits are coherent without TTLs or explicit
// invalidation hooks, and a write to one document leaves every other
// document's entries valid.
//
// The cache is a bounded LRU — bounded both in entry count and total
// body bytes — with single-flight miss coalescing: concurrent misses
// on the same (key, version) compute the response once and share it.
package readcache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// Entry is one cached response: the fully encoded body plus the
// headers the read path replays on a hit. Body must not be mutated
// after being handed to the cache (it is shared between goroutines).
type Entry struct {
	Body        []byte
	ContentType string
}

// Stats is a point-in-time counter snapshot, embedded in /stats.
type Stats struct {
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Coalesced  uint64  `json:"coalesced"` // misses served by another request's fill
	Evictions  uint64  `json:"evictions"`
	Bypassed   uint64  `json:"bypassed"` // fills not cached (oversized or out-of-date version)
	FillErrors uint64  `json:"fill_errors"`
	Entries    int     `json:"entries"`
	Bytes      int64   `json:"bytes"`
	HitRatio   float64 `json:"hit_ratio"`
}

// Cache is the bounded LRU. Safe for concurrent use; the zero value is
// not usable — construct with New.
type Cache struct {
	maxEntries int
	maxBytes   int64
	// maxEntryBytes caps a single body so one huge response cannot
	// evict the whole working set; derived from maxBytes in New.
	maxEntryBytes int64

	mu     sync.Mutex
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	bytes  int64
	flight map[string]*flight

	hits, misses, coalesced     obs.Counter
	evictions, bypassed, errors obs.Counter
}

// cacheEntry is the LRU element payload.
type cacheEntry struct {
	key     string
	version uint64
	e       Entry
}

// flight is one in-progress fill that concurrent misses wait on.
type flight struct {
	version uint64
	done    chan struct{}
	e       Entry
	err     error
}

// New returns a cache bounded to maxEntries entries and maxBytes total
// body bytes. Either bound <= 0 disables the cache dimension-free:
// New(0, x) and New(x, 0) return a cache that never stores (Do always
// runs the fill), so callers can treat "cache off" uniformly.
func New(maxEntries int, maxBytes int64) *Cache {
	c := &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		flight:     make(map[string]*flight),
	}
	if maxEntries > 0 && maxBytes > 0 {
		c.maxEntryBytes = maxBytes / 4
		if c.maxEntryBytes < 1 {
			c.maxEntryBytes = 1
		}
	}
	return c
}

// enabled reports whether both bounds admit storage.
func (c *Cache) enabled() bool { return c.maxEntries > 0 && c.maxBytes > 0 }

// Do returns the response for (key, version), computing it with fill
// on a miss. hit reports whether the entry was served from the cache
// (coalesced waiters count as hits: their response came from another
// request's fill, not their own). fill runs without the cache lock;
// its error is propagated to every coalesced waiter and never cached.
//
// Version discipline: versions for a key are monotone (entry or store
// sequences). An entry stored under an older version is stale
// and replaced; a caller whose version is older than the stored entry
// raced a concurrent writer — it computes fresh state but does not
// clobber the newer entry.
func (c *Cache) Do(key string, version uint64, fill func() (Entry, error)) (e Entry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		ce := el.Value.(*cacheEntry)
		if ce.version == version {
			c.ll.MoveToFront(el)
			c.hits.Inc()
			e = ce.e // a later fill overwrites ce in place, under the lock
			c.mu.Unlock()
			return e, true, nil
		}
	}
	c.misses.Inc()
	if f, ok := c.flight[key]; ok && f.version == version {
		// Same query, same version, fill already running: wait for it.
		c.coalesced.Inc()
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return Entry{}, false, f.err
		}
		return f.e, true, nil
	}
	var f *flight
	leader := false
	if _, ok := c.flight[key]; !ok {
		f = &flight{version: version, done: make(chan struct{})}
		c.flight[key] = f
		leader = true
	}
	c.mu.Unlock()

	e, err = fill()

	if !leader {
		// A fill for a different version of this key is in progress; our
		// result is computed privately and not stored (rare: requires a
		// version change racing the flight).
		if err != nil {
			c.errors.Inc()
		} else {
			c.bypassed.Inc()
		}
		return e, false, err
	}
	f.e, f.err = e, err
	c.mu.Lock()
	delete(c.flight, key)
	if err != nil {
		c.errors.Inc()
	} else {
		c.storeLocked(key, version, e)
	}
	c.mu.Unlock()
	close(f.done)
	return e, false, err
}

// storeLocked inserts (or replaces) key's entry and evicts from the
// LRU tail until both bounds hold. c.mu must be held.
func (c *Cache) storeLocked(key string, version uint64, e Entry) {
	if !c.enabled() || int64(len(e.Body)) > c.maxEntryBytes {
		c.bypassed.Inc()
		return
	}
	if el, ok := c.items[key]; ok {
		ce := el.Value.(*cacheEntry)
		if ce.version > version {
			// A newer fill already landed; keep it.
			c.bypassed.Inc()
			return
		}
		c.bytes += int64(len(e.Body)) - int64(len(ce.e.Body))
		ce.version, ce.e = version, e
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, version: version, e: e})
		c.bytes += int64(len(e.Body))
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		ce := c.ll.Remove(el).(*cacheEntry)
		delete(c.items, ce.key)
		c.bytes -= int64(len(ce.e.Body))
		c.evictions.Inc()
	}
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	st := Stats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Coalesced:  c.coalesced.Value(),
		Evictions:  c.evictions.Value(),
		Bypassed:   c.bypassed.Value(),
		FillErrors: c.errors.Value(),
		Entries:    entries,
		Bytes:      bytes,
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}

// RegisterObs exposes the cache's instruments on reg (nil-safe):
// hit/miss/coalesced/eviction counters, entry/byte gauges, and the
// cumulative hit-ratio gauge.
func (c *Cache) RegisterObs(reg *obs.Registry) {
	reg.RegisterCounter("yprov_readcache_hits_total",
		"Read-cache lookups served from a valid cached body.", nil, &c.hits)
	reg.RegisterCounter("yprov_readcache_misses_total",
		"Read-cache lookups that had to compute the response.", nil, &c.misses)
	reg.RegisterCounter("yprov_readcache_coalesced_total",
		"Misses served by another in-flight request's fill (single-flight).", nil, &c.coalesced)
	reg.RegisterCounter("yprov_readcache_evictions_total",
		"Entries evicted to satisfy the entry or byte bound.", nil, &c.evictions)
	reg.RegisterCounter("yprov_readcache_bypassed_total",
		"Fills not cached: oversized body or raced by a newer version.", nil, &c.bypassed)
	reg.RegisterCounter("yprov_readcache_fill_errors_total",
		"Fills that returned an error (never cached).", nil, &c.errors)
	reg.RegisterGaugeFunc("yprov_readcache_entries",
		"Entries currently cached.", nil,
		func() float64 { return float64(c.Len()) })
	reg.RegisterGaugeFunc("yprov_readcache_bytes",
		"Body bytes currently cached.", nil,
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.bytes)
		})
	reg.RegisterGaugeFunc("yprov_readcache_hit_ratio",
		"Cumulative hit ratio: hits / (hits + misses).", nil,
		func() float64 { return c.Stats().HitRatio })
}
