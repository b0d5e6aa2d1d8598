// Package metrics implements the time-series side of yProv4ML: metric
// points accumulated during a run, grouped by (name, context), with
// pluggable persistence backends. The inline-JSON backend embeds every
// point in the provenance document (the paper's "original" layout);
// the Zarr and NetCDF backends offload series into compact binary files
// and leave only a reference in the document — the mechanism evaluated
// in Table 1.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Context labels the run stage a metric belongs to (paper Figure 2).
type Context string

// Standard contexts; users may define their own.
const (
	Training   Context = "TRAINING"
	Validation Context = "VALIDATION"
	Testing    Context = "TESTING"
)

// Point is one metric observation.
type Point struct {
	Step  int64
	Epoch int
	Time  time.Time
	Value float64
}

// Series is an ordered sequence of observations for one metric in one
// context.
type Series struct {
	Name    string
	Context Context
	Points  []Point
}

// Append adds a point to the series.
func (s *Series) Append(p Point) { s.Points = append(s.Points, p) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Stats summarizes a series.
type Stats struct {
	Count     int
	Mean      float64
	Min       float64
	Max       float64
	Last      float64
	FirstTime time.Time
	LastTime  time.Time
}

// Stats computes summary statistics; zero-valued for an empty series.
func (s *Series) Stats() Stats {
	if len(s.Points) == 0 {
		return Stats{}
	}
	st := Stats{
		Count:     len(s.Points),
		Min:       math.Inf(1),
		Max:       math.Inf(-1),
		Last:      s.Points[len(s.Points)-1].Value,
		FirstTime: s.Points[0].Time,
		LastTime:  s.Points[len(s.Points)-1].Time,
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
		if p.Value < st.Min {
			st.Min = p.Value
		}
		if p.Value > st.Max {
			st.Max = p.Value
		}
	}
	st.Mean = sum / float64(len(s.Points))
	return st
}

// Key identifies a series within a collection.
type Key struct {
	Name    string
	Context Context
}

func (k Key) String() string { return string(k.Context) + "/" + k.Name }

// numShards stripes the collection's lock so data-parallel workers
// logging different metrics do not serialize on one mutex. Must be a
// power of two.
const numShards = 16

type shard struct {
	mu     sync.RWMutex
	series map[Key]*Series
}

// Collection is a thread-safe set of series for one run. Series are
// spread over lock-striped shards keyed by a hash of (name, context):
// concurrent Log calls for different series proceed in parallel and only
// same-series appends contend.
type Collection struct {
	shards [numShards]shard
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	c := &Collection{}
	for i := range c.shards {
		c.shards[i].series = make(map[Key]*Series)
	}
	return c
}

// shardFor picks the shard owning key k (FNV-1a over context and name).
func (c *Collection) shardFor(k Key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Context); i++ {
		h = (h ^ uint64(k.Context[i])) * prime64
	}
	h = (h ^ '/') * prime64
	for i := 0; i < len(k.Name); i++ {
		h = (h ^ uint64(k.Name[i])) * prime64
	}
	return &c.shards[h&(numShards-1)]
}

// Log appends one observation, creating the series on first use.
func (c *Collection) Log(name string, ctx Context, p Point) {
	k := Key{Name: name, Context: ctx}
	sh := c.shardFor(k)
	sh.mu.Lock()
	s, ok := sh.series[k]
	if !ok {
		s = &Series{Name: name, Context: ctx}
		sh.series[k] = s
	}
	s.Append(p)
	sh.mu.Unlock()
}

// Keys lists all series keys in sorted order.
func (c *Collection) Keys() []Key {
	var keys []Key
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k := range sh.series {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// TotalPoints counts points across all series.
func (c *Collection) TotalPoints() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			n += len(s.Points)
		}
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot returns deep copies of every series in key order, taking each
// shard lock exactly once (no per-series relocking).
func (c *Collection) Snapshot() []Series {
	var out []Series
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			out = append(out, Series{Name: s.Name, Context: s.Context, Points: append([]Point(nil), s.Points...)})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return Key{out[i].Name, out[i].Context}.String() < Key{out[j].Name, out[j].Context}.String()
	})
	return out
}

// SeriesStats pairs a series key with its summary statistics.
type SeriesStats struct {
	Key   Key
	Stats Stats
}

// StatsSnapshot returns summary statistics for every series in key
// order, computed under the shard read locks without copying any
// points. Consumers that only need aggregates (the provenance document
// builder summarizes each series into a handful of attributes) skip
// the deep point copies Snapshot pays for.
func (c *Collection) StatsSnapshot() []SeriesStats {
	var out []SeriesStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			out = append(out, SeriesStats{Key: k, Stats: s.Stats()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Sink persists a collection and returns, per series, a reference
// string that the provenance document can embed in place of raw points.
type Sink interface {
	// Flush writes all series and returns series-key -> reference.
	Flush(c *Collection) (map[Key]string, error)
}

// ErrEmptyCollection is returned by sinks asked to flush nothing.
var ErrEmptyCollection = fmt.Errorf("metrics: empty collection")
