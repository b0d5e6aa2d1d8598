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
	"slices"
	"strings"
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

// Point is one metric observation: what Log takes and At returns.
type Point struct {
	Step  int64
	Epoch int
	Time  time.Time
	Value float64
}

// blockLen is how many points one block of a series holds.
const blockLen = 256

// block holds blockLen consecutive points of a series as the columns
// the sinks write. A time is kept as its Unix seconds and nanoseconds:
// the instant a time.Time names, from which UnixNano and the UTC
// calendar time come back exactly as the logged value gives them.
type block struct {
	step  [blockLen]int64
	epoch [blockLen]int
	sec   [blockLen]int64
	nsec  [blockLen]int32
	value [blockLen]float64
}

// time returns row j's time in UTC.
func (b *block) time(j int) time.Time { return time.Unix(b.sec[j], int64(b.nsec[j])).UTC() }

// Series is an ordered sequence of observations for one metric in one
// context. Its points live in append-only blocks: an append writes one
// row of the last block, or starts a new one, and never moves a stored
// point. A Series from Snapshot is a view sharing its blocks with the
// collection's series.
type Series struct {
	Name    string
	Context Context

	key    string // Key{Name, Context}.String(), the sort key of Snapshot
	n      int
	blocks []*block
	view   bool // the last block is shared: copy it before writing to it
}

// Append adds a point to the series.
func (s *Series) Append(p Point) {
	j := s.n % blockLen
	if j == 0 {
		s.blocks = append(s.blocks, new(block))
	} else if s.view {
		last := *s.blocks[len(s.blocks)-1]
		s.blocks = append(s.blocks[:len(s.blocks)-1:len(s.blocks)-1], &last)
	}
	s.view = false
	b := s.blocks[len(s.blocks)-1]
	b.step[j] = p.Step
	b.epoch[j] = p.Epoch
	b.sec[j] = p.Time.Unix()
	b.nsec[j] = int32(p.Time.Nanosecond())
	b.value[j] = p.Value
	s.n++
}

// Len returns the number of points.
func (s *Series) Len() int { return s.n }

// At returns point i, its time in UTC.
func (s *Series) At(i int) Point {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("metrics: point %d of a %d-point series", i, s.n))
	}
	b, j := s.blocks[i/blockLen], i%blockLen
	return Point{Step: b.step[j], Epoch: b.epoch[j], Time: b.time(j), Value: b.value[j]}
}

// eachBlock calls fn with every block in order and the number of
// points it holds, from its row 0.
func (s *Series) eachBlock(fn func(b *block, n int)) {
	for k, left := 0, s.n; left > 0; k++ {
		n := min(left, blockLen)
		fn(s.blocks[k], n)
		left -= n
	}
}

// fillColumns writes the series' points in order into the columns the
// file sinks store, each nil or Len long: value, step, epoch, and
// tstamp, the time in Unix seconds (its UnixNano / 1e9).
func (s *Series) fillColumns(value, step, epoch, tstamp []float64) {
	off := 0
	s.eachBlock(func(b *block, n int) {
		if value != nil {
			copy(value[off:off+n], b.value[:n])
		}
		if step != nil {
			for j, v := range b.step[:n] {
				step[off+j] = float64(v)
			}
		}
		if epoch != nil {
			for j, v := range b.epoch[:n] {
				epoch[off+j] = float64(v)
			}
		}
		if tstamp != nil {
			for j, sec := range b.sec[:n] {
				tstamp[off+j] = float64(sec*1e9+int64(b.nsec[j])) / 1e9
			}
		}
		off += n
	})
}

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
	if s.n == 0 {
		return Stats{}
	}
	last := s.At(s.n - 1)
	st := Stats{
		Count:     s.n,
		Min:       math.Inf(1),
		Max:       math.Inf(-1),
		Last:      last.Value,
		FirstTime: s.At(0).Time,
		LastTime:  last.Time,
	}
	var sum float64
	s.eachBlock(func(b *block, n int) {
		for _, v := range b.value[:n] {
			sum += v
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
	})
	st.Mean = sum / float64(s.n)
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
	mu     sync.Mutex
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

// get returns the series for k, creating it; the shard lock is held.
func (sh *shard) get(k Key) *Series {
	s, ok := sh.series[k]
	if !ok {
		s = &Series{Name: k.Name, Context: k.Context, key: k.String()}
		sh.series[k] = s
	}
	return s
}

// Log appends one observation, creating the series on first use.
func (c *Collection) Log(name string, ctx Context, p Point) {
	k := Key{Name: name, Context: ctx}
	sh := c.shardFor(k)
	sh.mu.Lock()
	sh.get(k).Append(p)
	sh.mu.Unlock()
}

// Handle appends to one series of a collection. Collection.Handle finds
// or creates the series once; a Log through the handle then takes the
// series' shard lock and nothing else, not the name hash and map lookup
// Collection.Log pays for every point.
type Handle struct {
	mu *sync.Mutex
	s  *Series
}

// Handle returns the handle of series (name, ctx), creating the series.
func (c *Collection) Handle(name string, ctx Context) Handle {
	k := Key{Name: name, Context: ctx}
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return Handle{mu: &sh.mu, s: sh.get(k)}
}

// Log appends one observation to the handle's series.
func (h Handle) Log(p Point) {
	h.mu.Lock()
	h.s.Append(p)
	h.mu.Unlock()
}

// Keys lists all series keys in sorted order.
func (c *Collection) Keys() []Key {
	snap := c.Snapshot()
	keys := make([]Key, len(snap))
	for i, s := range snap {
		keys[i] = Key{Name: s.Name, Context: s.Context}
	}
	return keys
}

// TotalPoints counts points across all series.
func (c *Collection) TotalPoints() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			n += s.n
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns every series in key order as a view: the length and
// block list each had under its shard lock, which is all it copies.
// The points a view shows never change, and it is read without locks
// while Log keeps appending to the collection: an append writes only
// rows past every view's end, and Append on a view copies the block it
// would write to.
func (c *Collection) Snapshot() []Series {
	var out []Series
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			nb := len(s.blocks)
			out = append(out, Series{Name: s.Name, Context: s.Context, key: s.key, n: s.n, blocks: s.blocks[:nb:nb], view: true})
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b Series) int { return strings.Compare(a.key, b.key) })
	return out
}

// SeriesStats pairs a series key with its summary statistics.
type SeriesStats struct {
	Key   Key
	Stats Stats
}

// StatsSnapshot returns summary statistics for every series in key
// order, folded from Snapshot's views: no point is copied.
func (c *Collection) StatsSnapshot() []SeriesStats {
	snap := c.Snapshot()
	out := make([]SeriesStats, len(snap))
	for i := range snap {
		out[i] = SeriesStats{Key: Key{Name: snap[i].Name, Context: snap[i].Context}, Stats: snap[i].Stats()}
	}
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
