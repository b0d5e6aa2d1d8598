// Package flightrec is the flight recorder: a lock-cheap, bounded,
// in-memory retention layer over the per-request signal that the
// tracing and metrics layers otherwise discard when the response is
// written. It keeps three things always on:
//
//   - a ring of recently completed request traces with their full span
//     breakdowns, sampled by policy — errors, sheds, and anything over
//     the slow threshold are always kept, the unremarkable rest is
//     1-in-N sampled;
//   - a slow-query log: the top-K requests by duration per route
//     class, each carrying its trace ID, span timings (shard lock
//     wait, commit wait, cache time) and cache hit/miss state;
//   - a rolling window of runtime telemetry polled from
//     runtime/metrics (heap, goroutines, GC pause, scheduler
//     latency), exposed as gauges on the obs registry.
//
// Anomaly triggers — the store's fail-stop latch, replication-stream
// failure — freeze all of it into a diagnostic Bundle retrievable over
// HTTP or dumped to disk, so last night's failure can be explained
// without reproducing it.
//
// The recorder sits on the response path of every request, so the
// unsampled fast path is held to a handful of atomic operations and no
// allocation (the zero is gated by TestObserveUnsampledAllocatesNothing;
// BenchmarkFlightRecord reports the ns/op); building the full
// record — span merging, allocation — is the caller's job and happens
// only after Observe says the request is worth keeping. Every
// exported method is safe on a nil *Recorder, so wiring is optional
// at every call site.
package flightrec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config shapes the recorder. Zero values take the documented
// defaults; negative values disable where noted.
type Config struct {
	TraceRing      int           // retained completed-request records, rounded up to a power of two (default 256)
	SlowLogK       int           // slow-log entries kept per route class (default 8)
	SlowThreshold  time.Duration // requests at or over this are always recorded (default 250ms)
	SlowLogFloor   time.Duration // requests under this never enter the slow log (default 100µs)
	SampleEvery    int           // record 1 in N unremarkable requests (default 16; <0 disables)
	FreezeCooldown time.Duration // minimum spacing between freezes of the same trigger kind (default 1m)
	RuntimeEvery   time.Duration // runtime/metrics poll interval (default 1s)
	RuntimeWindow  int           // runtime samples retained (default 120)

	// Logf, when set, announces bundle freezes (log.Printf-shaped).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	if c.SlowLogK <= 0 {
		c.SlowLogK = 8
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	if c.SlowLogFloor == 0 {
		c.SlowLogFloor = 100 * time.Microsecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	if c.FreezeCooldown <= 0 {
		c.FreezeCooldown = time.Minute
	}
	if c.RuntimeEvery <= 0 {
		c.RuntimeEvery = time.Second
	}
	if c.RuntimeWindow <= 0 {
		c.RuntimeWindow = 120
	}
	return c
}

// Completed is one finished request as retained by the recorder.
// Records are immutable once added, so snapshots share pointers.
type Completed struct {
	Trace  string        `json:"trace"`
	Route  string        `json:"route"`
	Status int           `json:"status"`
	Shed   bool          `json:"shed,omitempty"`
	Cache  string        `json:"cache,omitempty"` // X-Yprov-Cache state: hit/miss/bypass
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Spans  []Span        `json:"spans,omitempty"`
}

// Span is one named stage timing inside a retained record.
type Span struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// SpansFrom converts a trace's merged span records for retention.
func SpansFrom(rs []obs.SpanRecord) []Span {
	if len(rs) == 0 {
		return nil
	}
	out := make([]Span, len(rs))
	for i, s := range rs {
		out[i] = Span{Name: s.Name, Dur: s.Dur}
	}
	return out
}

// Recorder is the flight recorder. Create with New, wire metrics with
// RegisterObs, feed it from the response path with Observe/Add, and
// Close it on shutdown to stop the runtime poller.
type Recorder struct {
	cfg Config

	// Trace ring: head counts completed stores; a record lands at
	// (head-1)&mask. Writers never block each other or readers — a
	// snapshot may interleave records from adjacent generations, which
	// is fine for diagnostics.
	ring []atomic.Pointer[Completed]
	mask uint64
	head atomic.Uint64

	routes sync.Map // route class -> *slowRoute

	reqCtr          atomic.Uint64
	failStopLatched atomic.Bool

	freezeMu   sync.Mutex
	lastFreeze map[string]time.Time
	latest     atomic.Pointer[Bundle]

	reg      *obs.Registry // set by RegisterObs; snapshotted into bundles
	configMu sync.Mutex
	config   []byte // server config JSON injected into bundles

	rt *runtimePoller

	recorded obs.Counter
	freezes  obs.Counter

	closeOnce sync.Once
}

// slowRoute is one route class's top-K slow log. minDur caches the
// smallest retained duration once the log is full, so the hot path
// can reject fast requests with one atomic load and no lock.
type slowRoute struct {
	mu      sync.Mutex
	entries []*Completed
	minDur  atomic.Int64 // 0 until full
}

// New builds a recorder and starts its runtime-telemetry poller.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	size := 1
	for size < cfg.TraceRing {
		size <<= 1
	}
	return &Recorder{
		cfg:        cfg,
		ring:       make([]atomic.Pointer[Completed], size),
		mask:       uint64(size - 1),
		lastFreeze: make(map[string]time.Time),
		rt:         newRuntimePoller(cfg.RuntimeEvery, cfg.RuntimeWindow),
	}
}

// Close stops the runtime poller. Safe on nil and safe to call twice.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.closeOnce.Do(r.rt.close)
}

// SetConfig injects the server's effective-config JSON, included
// verbatim in every bundle frozen afterwards.
func (r *Recorder) SetConfig(raw []byte) {
	if r == nil {
		return
	}
	r.configMu.Lock()
	r.config = append([]byte(nil), raw...)
	r.configMu.Unlock()
}

// Observe feeds one completed request's cheap facts into the recorder
// and reports whether the caller should build the full record and Add
// it. This is the per-request hot path: when it returns false the
// cost is a few atomic operations, no locks, no allocation.
func (r *Recorder) Observe(route string, status int, shed bool, dur time.Duration) bool {
	if r == nil {
		return false
	}
	n := r.reqCtr.Add(1)
	// Always keep server errors, sheds, and slow requests.
	if status >= 500 || status == 429 || shed || dur >= r.cfg.SlowThreshold {
		return true
	}
	// Keep anything that would enter its route's top-K slow log.
	if dur >= r.cfg.SlowLogFloor && r.slowQualifies(route, dur) {
		return true
	}
	// Reservoir-sample the unremarkable rest.
	return r.cfg.SampleEvery > 0 && n%uint64(r.cfg.SampleEvery) == 0
}

func (r *Recorder) slowQualifies(route string, dur time.Duration) bool {
	v, ok := r.routes.Load(route)
	if !ok {
		return true // first requests on a route seed its slow log
	}
	return int64(dur) >= v.(*slowRoute).minDur.Load()
}

// Add retains a fully built record. Call it only when Observe
// returned true for the same request; c must not be mutated after.
func (r *Recorder) Add(c *Completed) {
	if r == nil || c == nil {
		return
	}
	h := r.head.Add(1)
	r.ring[(h-1)&r.mask].Store(c)
	r.recorded.Inc()
	if c.Dur >= r.cfg.SlowLogFloor {
		r.slowInsert(c)
	}
}

func (r *Recorder) slowInsert(c *Completed) {
	v, _ := r.routes.LoadOrStore(c.Route, &slowRoute{})
	s := v.(*slowRoute)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) < r.cfg.SlowLogK {
		s.entries = append(s.entries, c)
		if len(s.entries) == r.cfg.SlowLogK {
			s.minDur.Store(s.minEntryLocked())
		}
		return
	}
	if int64(c.Dur) <= s.minDur.Load() {
		return // raced below the threshold since the fast-path check
	}
	mi := 0
	for i := range s.entries {
		if s.entries[i].Dur < s.entries[mi].Dur {
			mi = i
		}
	}
	s.entries[mi] = c
	s.minDur.Store(s.minEntryLocked())
}

func (s *slowRoute) minEntryLocked() int64 {
	min := int64(1<<63 - 1)
	for _, e := range s.entries {
		if int64(e.Dur) < min {
			min = int64(e.Dur)
		}
	}
	return min
}

// Traces returns up to n of the most recently retained records,
// newest first (best effort under concurrent writers). n <= 0 means
// the whole ring.
func (r *Recorder) Traces(n int) []*Completed {
	if r == nil {
		return nil
	}
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	h := r.head.Load()
	out := make([]*Completed, 0, n)
	for i := uint64(0); i < uint64(n); i++ {
		if c := r.ring[(h-1-i)&r.mask].Load(); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// TraceByID scans the ring for a retained record with the given trace
// ID, or nil.
func (r *Recorder) TraceByID(id string) *Completed {
	if r == nil || id == "" {
		return nil
	}
	for i := range r.ring {
		if c := r.ring[i].Load(); c != nil && c.Trace == id {
			return c
		}
	}
	return nil
}

// SlowLog snapshots the per-route top-K, each route's entries sorted
// slowest first.
func (r *Recorder) SlowLog() map[string][]*Completed {
	if r == nil {
		return nil
	}
	out := make(map[string][]*Completed)
	r.routes.Range(func(k, v any) bool {
		s := v.(*slowRoute)
		s.mu.Lock()
		entries := append([]*Completed(nil), s.entries...)
		s.mu.Unlock()
		for i := 1; i < len(entries); i++ { // insertion sort, K is small
			for j := i; j > 0 && entries[j].Dur > entries[j-1].Dur; j-- {
				entries[j], entries[j-1] = entries[j-1], entries[j]
			}
		}
		out[k.(string)] = entries
		return true
	})
	return out
}

// RequestsSeen returns the number of completed requests observed.
func (r *Recorder) RequestsSeen() uint64 {
	if r == nil {
		return 0
	}
	return r.reqCtr.Load()
}

// NoteFailStop freezes a bundle the first time the store's fail-stop
// latch is seen tripped; later calls are free no-ops.
func (r *Recorder) NoteFailStop(reason string) {
	if r == nil || !r.failStopLatched.CompareAndSwap(false, true) {
		return
	}
	r.Freeze("fail-stop", reason)
}

// RegisterObs exposes recorder and runtime-telemetry instruments and
// remembers the registry for bundle metric snapshots.
func (r *Recorder) RegisterObs(reg *obs.Registry) {
	if r == nil {
		return
	}
	r.reg = reg
	reg.RegisterCounterFunc("yprov_flightrec_requests_total",
		"Completed requests seen by the flight recorder.", nil,
		func() float64 { return float64(r.reqCtr.Load()) })
	reg.RegisterCounter("yprov_flightrec_records_total",
		"Request records retained by the flight recorder (sampled in).", nil, &r.recorded)
	reg.RegisterCounter("yprov_flightrec_freezes_total",
		"Diagnostic bundles frozen by anomaly triggers.", nil, &r.freezes)
	reg.RegisterGaugeFunc("yprov_runtime_heap_bytes",
		"Live heap object bytes (runtime/metrics).", nil,
		func() float64 { return float64(r.rt.latest().HeapBytes) })
	reg.RegisterGaugeFunc("yprov_runtime_goroutines",
		"Goroutine count (runtime/metrics).", nil,
		func() float64 { return float64(r.rt.latest().Goroutines) })
	reg.RegisterCounterFunc("yprov_runtime_gc_cycles_total",
		"Completed GC cycles (runtime/metrics).", nil,
		func() float64 { return float64(r.rt.latest().GCCycles) })
	reg.RegisterGaugeFunc("yprov_runtime_gc_pause_p99_seconds",
		"p99 GC stop-the-world pause since process start (runtime/metrics).", nil,
		func() float64 { return r.rt.latest().GCPauseP99 })
	reg.RegisterGaugeFunc("yprov_runtime_sched_latency_p99_seconds",
		"p99 goroutine scheduling latency since process start (runtime/metrics).", nil,
		func() float64 { return r.rt.latest().SchedLatP99 })
}
