// Package obs is the observability layer shared by every subsystem:
// lock-cheap log-linear histograms, counters, a Prometheus text-format
// registry, and request traces with named span timings that ride the
// context through the HTTP → store → WAL → replication pipeline.
//
// The package is a leaf by design — it imports nothing from the rest
// of the module, so the WAL, the store, the service, and the client
// can all depend on it without cycles.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a log-linear histogram: each power-of-two range
// ("octave") between 2^minExp and 2^maxExp is split into 2^subBits
// equal-width sub-buckets, which bounds the relative quantile error at
// 1/2^subBits (12.5% with the default subBits=2) while keeping the
// bucket count small enough for text exposition. Observe is three
// plain atomic adds plus two bounded CAS loops — no locks, no
// allocation — so it can sit on the WAL fsync path and the shard-lock
// path without showing up in benchmarks.
//
// Raw observations are int64 in the histogram's native unit
// (nanoseconds for durations, records for sizes); scale converts raw
// units to the exposition unit (seconds for durations).
type Histogram struct {
	minExp  uint
	maxExp  uint
	subBits uint
	scale   float64

	// rawUppers[i] is the inclusive upper bound of finite bucket i in
	// raw units; counts has one extra slot at the end for +Inf.
	rawUppers []uint64
	counts    []atomic.Uint64
	count     atomic.Uint64
	sum       atomic.Int64
	min       atomic.Int64
	max       atomic.Int64

	// exemplars, when enabled, holds one slot per bucket (nil until the
	// bucket sees an exemplar-carrying observation). See exemplar.go.
	exemplars []atomic.Pointer[Exemplar]
}

// NewHistogram builds a histogram covering (0, 2^maxExp] raw units
// with 2^subBits sub-buckets per octave starting at 2^minExp.
// minExp must be >= subBits (so sub-bucket widths stay integral) and
// < maxExp. Values at or below the first bound clamp into bucket 0;
// values above 2^maxExp land in the +Inf bucket.
func NewHistogram(minExp, maxExp, subBits uint, scale float64) *Histogram {
	if subBits > 6 || minExp < subBits || maxExp <= minExp || maxExp > 62 {
		panic("obs: invalid histogram shape")
	}
	n := int(maxExp-minExp) << subBits
	h := &Histogram{
		minExp:    minExp,
		maxExp:    maxExp,
		subBits:   subBits,
		scale:     scale,
		rawUppers: make([]uint64, n),
		counts:    make([]atomic.Uint64, n+1),
	}
	i := 0
	for e := minExp; e < maxExp; e++ {
		base := uint64(1) << e
		step := base >> subBits
		for s := uint64(1); s <= 1<<subBits; s++ {
			h.rawUppers[i] = base + s*step
			i++
		}
	}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64 until the first observation
	return h
}

// NewDurationHistogram covers ~4.1µs to ~34s of nanosecond
// observations, exposed in seconds. ObserveDuration/ObserveSince are
// the intended entry points.
func NewDurationHistogram() *Histogram {
	return NewHistogram(12, 35, 2, 1e-9)
}

// NewSizeHistogram covers counts from 1 to ~4M (batch sizes, queue
// depths), exposed unscaled.
func NewSizeHistogram() *Histogram {
	return NewHistogram(2, 22, 2, 1)
}

// bucketIdx maps a raw observation to its bucket. Buckets are
// le-inclusive to match Prometheus semantics: a value exactly on a
// bound counts into that bound's bucket (hence the v-1 trick).
func (h *Histogram) bucketIdx(v int64) int {
	if v <= 1 {
		return 0
	}
	u := uint64(v) - 1
	e := uint(bits.Len64(u)) - 1
	if e < h.minExp {
		return 0
	}
	if e >= h.maxExp {
		return len(h.counts) - 1
	}
	sub := (u >> (e - h.subBits)) & (1<<h.subBits - 1)
	return int((e-h.minExp)<<h.subBits) + int(sub)
}

// Observe records one raw value. Safe for concurrent use.
func (h *Histogram) Observe(v int64) {
	h.observe(v, h.bucketIdx(v))
}

// observe is Observe with the bucket already resolved, so exemplar
// attribution reuses the exact index the count landed in.
func (h *Histogram) observe(v int64, idx int) {
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram's state in raw
// units. Count is the sum of Counts, so cumulative bucket math is
// internally consistent even when taken mid-observation.
type HistSnapshot struct {
	Count  uint64
	Sum    int64
	Min    int64
	Max    int64
	Counts []uint64 // one per finite bucket, then +Inf
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Sum:    h.sum.Load(),
		Min:    h.min.Load(),
		Max:    h.max.Load(),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// ObserveDuration records a duration into a nanosecond-unit histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the elapsed time from start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }
