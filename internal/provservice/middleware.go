package provservice

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The service's HTTP pipeline is a stack of composable middleware
// wrapped around thin handlers (see service.go):
//
//	trace -> logging -> metrics -> rate limit -> auth -> admission ->
//	follower guard -> min-seq -> deadline -> body limit -> mux
//
// Each layer does one thing and knows nothing about the others; the
// handlers at the bottom only ever talk to the StoreAPI interface.

// middleware wraps an http.Handler with one cross-cutting concern.
type middleware func(http.Handler) http.Handler

// chain composes middleware around h. The first element is outermost:
// chain(h, a, b) serves a(b(h)).
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusWriter records the status code and byte count a handler wrote,
// for the logging and metrics layers.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the wrapped writer so http.NewResponseController can
// reach Flusher & co. through the middleware stack — the replication
// stream handler needs per-batch flushes.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withTrace is the outermost layer: it adopts the client's
// X-Yprov-Trace ID (or mints one), carries the trace through the
// request context — where the store and WAL record their span timings
// — and echoes the ID immediately plus the spans lazily (see
// spanWriter) on the response.
func (s *Service) withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
		w.Header().Set(obs.TraceHeader, tr.ID())
		sw := &spanWriter{ResponseWriter: w, tr: tr}
		next.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))
	})
}

// spanWriter injects the X-Yprov-Spans header at the moment the
// handler commits to a status — net/http drops headers set after
// WriteHeader, and the interesting spans (the WAL commit wait in
// particular) only finish just before the handler writes its response.
type spanWriter struct {
	http.ResponseWriter
	tr      *obs.Trace
	stamped bool
}

func (w *spanWriter) stamp() {
	if w.stamped {
		return
	}
	w.stamped = true
	if spans := w.tr.SpanString(); spans != "" {
		w.ResponseWriter.Header().Set(obs.SpanHeader, spans)
	}
}

func (w *spanWriter) WriteHeader(code int) {
	w.stamp()
	w.ResponseWriter.WriteHeader(code)
}

func (w *spanWriter) Write(p []byte) (int, error) {
	w.stamp()
	return w.ResponseWriter.Write(p)
}

// Unwrap keeps Flusher & co. reachable (see statusWriter.Unwrap).
func (w *spanWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestLog is the structured request record emitted when the
// service runs with the JSON log format. Span durations are in
// milliseconds, keyed by span name.
type requestLog struct {
	Time   string             `json:"time"`
	Trace  string             `json:"trace"`
	Method string             `json:"method"`
	Path   string             `json:"path"`
	Route  string             `json:"route"`
	Status int                `json:"status"`
	Bytes  int64              `json:"bytes"`
	DurMs  float64            `json:"dur_ms"`
	Client string             `json:"client"`
	Slow   bool               `json:"slow,omitempty"`
	Spans  map[string]float64 `json:"spans,omitempty"`
}

// withLogging emits one line per request — classic text or structured
// JSON (WithLogFormat). Requests at or over the slow-request threshold
// are flagged and carry their span breakdown, and are logged even when
// general request logging is off.
func (s *Service) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.logger == nil && s.slowThreshold <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		slow := s.slowThreshold > 0 && d >= s.slowThreshold
		logger := s.logger
		if logger == nil {
			if !slow {
				return
			}
			logger = log.Default() // slow-request logging was asked for explicitly
		}
		tr := obs.FromContext(r.Context())
		if s.logJSON {
			rec := requestLog{
				Time:   start.UTC().Format(time.RFC3339Nano),
				Trace:  tr.ID(),
				Method: r.Method,
				Path:   r.URL.Path,
				Route:  routeClass(r.URL.EscapedPath()),
				Status: sw.status,
				Bytes:  sw.bytes,
				DurMs:  float64(d) / 1e6,
				Client: clientKey(r),
				Slow:   slow,
			}
			if spans := tr.Spans(); len(spans) > 0 {
				rec.Spans = make(map[string]float64, len(spans))
				for _, sp := range spans {
					rec.Spans[sp.Name] = float64(sp.Dur) / 1e6
				}
			}
			if b, err := json.Marshal(rec); err == nil {
				logger.Printf("%s", b)
			}
			return
		}
		line := fmt.Sprintf("%s %s -> %d (%dB, %s, client %s, trace %s)",
			r.Method, r.URL.Path, sw.status, sw.bytes,
			d.Round(time.Microsecond), clientKey(r), tr.ID())
		if slow {
			line += " SLOW"
			if spans := tr.SpanString(); spans != "" {
				line += " spans=" + spans
			}
		}
		logger.Print(line)
	})
}

// withMetrics tracks in-flight requests (total and per write/read
// class — the write gauge feeds admission control) and per-route
// latency.
func (s *Service) withMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.metrics
		m.inflight.Add(1)
		defer m.inflight.Add(-1)
		class := &m.inflightReads
		if isMutation(r.Method) {
			class = &m.inflightWrites
		}
		class.Add(1)
		defer class.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		tr := obs.FromContext(r.Context())
		// Classify from the escaped path, like the router does: a %2F
		// inside a document id must not read as a path separator here.
		route := routeClass(r.URL.EscapedPath())
		m.observe(route, sw.status, d, tr.ID())
		s.recordFlight(tr, route, sw, start, d)
	})
}

// withRateLimit refuses requests from clients that exceed the
// configured per-client request rate (429 + Retry-After). Health checks
// are exempt so load balancers cannot starve themselves.
func (s *Service) withRateLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil && r.URL.Path != "/api/v0/health" && r.URL.Path != "/healthz" {
			if !s.limiter.allow(clientKey(r), time.Now()) {
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests, "rate limit exceeded")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// withAuth enforces the bearer token on mutating methods. Read paths
// stay open, matching the yProv service's open-exploration model.
func (s *Service) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isMutation(r.Method) && !s.authorized(r) {
			writeErr(w, http.StatusUnauthorized, "missing or bad bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withFollowerGuard rejects mutating methods on a read-only replica
// with 403 plus a Location hint rewriting the request onto the primary,
// so a client (or a human with curl) learns where writes go without a
// service-discovery round trip. Reads pass through untouched — serving
// them is the whole point of a replica.
func (s *Service) withFollowerGuard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.primaryURL != "" && isMutation(r.Method) {
			w.Header().Set("Location", s.primaryURL+r.URL.RequestURI())
			writeErr(w, http.StatusForbidden, "this server is a read-only replica; write to the primary at %s", s.primaryURL)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withMinSeq enforces read-your-writes tokens: a request carrying
// X-Yprov-Min-Seq is answered only if this server has applied at least
// that journal sequence; otherwise 503 + Retry-After so the caller can
// retry on a fresher replica (ultimately the primary, which by
// construction satisfies every token it issued).
func (s *Service) withMinSeq(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get("X-Yprov-Min-Seq"); v != "" {
			want, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad X-Yprov-Min-Seq %q", v)
				return
			}
			if have := s.store.AppliedSeq(); have < want {
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusServiceUnavailable, "replica lag: applied seq %d behind requested %d", have, want)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// withBodyLimit caps request body size. MaxBodyBytes is read per
// request without synchronization: set it after New but before the
// service starts serving, never while requests are in flight.
// MaxBodyBytes <= 0 rejects every non-empty body (matching the old
// inline check) rather than disabling the limit.
func (s *Service) withBodyLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			limit := s.MaxBodyBytes
			if limit < 0 {
				limit = 0
			}
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// clientKey identifies the remote client for rate limiting and logs:
// the connection's source host (ports vary per connection).
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// routeClass buckets request paths into a bounded set of route names so
// latency series cannot grow one-per-document-id.
func routeClass(path string) string {
	switch {
	case strings.HasPrefix(path, "/api/v0/documents/"):
		rest := path[len("/api/v0/documents/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch rest[i+1:] {
			case "lineage":
				return "documents/lineage"
			case "subgraph":
				return "documents/subgraph"
			}
			return "documents/other"
		}
		return "documents/id"
	case path == "/api/v0/documents":
		return "documents"
	case path == "/api/v0/documents:batch":
		return "documents/batch"
	case path == "/api/v0/search":
		return "search"
	case path == "/api/v0/lineage":
		return "cross-lineage"
	case path == "/api/v0/stats":
		return "stats"
	case strings.HasPrefix(path, "/api/v0/debug/"):
		return "debug"
	case path == "/api/v0/metrics", path == "/metrics":
		return "metrics"
	case path == "/api/v0/health", path == "/healthz":
		return "health"
	case strings.HasPrefix(path, "/api/v0/repl/"):
		return "repl"
	case strings.HasPrefix(path, "/explorer"):
		return "explorer"
	default:
		return "other"
	}
}

// --- token-bucket rate limiter ----------------------------------------

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// clientLimiter is a per-client token-bucket rate limiter: each client
// accrues rps tokens per second up to burst, and every request spends
// one. The bucket map is hard-capped at maxClients: when an insert
// would cross the cap, idle-refilled buckets are dropped first, then —
// if an address flood leaves nothing idle — arbitrary buckets are
// evicted down to evictTarget. Evicting a live bucket only resets that
// client to a full burst, so the trade is a bounded rate-limit leak for
// bounded memory and bounded prune cost.
type clientLimiter struct {
	mu      sync.Mutex
	rps     float64
	burst   float64
	buckets map[string]*bucket
}

// maxClients is the hard cap on tracked clients; evictTarget is the
// post-prune size, so each O(maxClients) prune pays for at least
// maxClients/4 subsequent O(1) inserts.
const (
	maxClients  = 8192
	evictTarget = maxClients * 3 / 4
)

func newClientLimiter(rps float64, burst int) *clientLimiter {
	if burst <= 0 {
		burst = int(2*rps + 0.5)
		if burst < 1 {
			burst = 1
		}
	}
	return &clientLimiter{
		rps:     rps,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
	}
}

// allow reports whether the client may proceed at time now.
func (l *clientLimiter) allow(key string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxClients {
			l.pruneLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rps
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// pruneLocked shrinks the bucket map below evictTarget: first buckets
// idle long enough to have refilled to full (semantically free to
// drop), then arbitrary ones if an address flood keeps everything warm.
func (l *clientLimiter) pruneLocked(now time.Time) {
	idle := time.Duration(l.burst/l.rps*float64(time.Second)) + time.Second
	for k, b := range l.buckets {
		if now.Sub(b.last) > idle {
			delete(l.buckets, k)
		}
	}
	for k := range l.buckets {
		if len(l.buckets) <= evictTarget {
			break
		}
		delete(l.buckets, k)
	}
}

// --- HTTP metrics ------------------------------------------------------

// httpMetrics aggregates request telemetry: in-flight gauges,
// cumulative status-class counters, and a log-bucketed latency
// histogram per route class. The histograms replaced the old
// bounded-rotation metrics.Collection — they are cumulative (accurate
// p50/p95/p99 with no sampling loss across rotations), lock-free on
// the observe path, and fixed-size regardless of traffic. Route
// classes are a bounded set (see routeClass), so the route map cannot
// grow per-document-id; routes materialize lazily on first hit and
// self-register on the service's obs registry.
type httpMetrics struct {
	inflight       atomic.Int64
	inflightWrites atomic.Int64 // mutating methods; feeds admission control
	inflightReads  atomic.Int64
	total          atomic.Uint64
	status2x       atomic.Uint64
	status4x       atomic.Uint64
	status5x       atomic.Uint64
	statusOt       atomic.Uint64 // 1xx/3xx (redirects, continues)

	reg    *obs.Registry
	mu     sync.Mutex // guards route creation (reads go through the sync.Map)
	routes sync.Map   // route class -> *routeMetrics
}

// routeMetrics is one route class's latency histogram plus per-status-
// class request counters, all exposed on the registry with a route
// label.
type routeMetrics struct {
	hist     *obs.Histogram
	statuses [4]*obs.Counter // indexed by statusClass
}

// statusClass maps an HTTP status to the counter index / label.
func statusClass(status int) (int, string) {
	switch {
	case status >= 500:
		return 2, "5xx"
	case status >= 400:
		return 1, "4xx"
	case status >= 200 && status < 300:
		return 0, "2xx"
	default:
		return 3, "other" // 1xx/3xx
	}
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	m := &httpMetrics{reg: reg}
	for class, g := range map[string]*atomic.Int64{
		"all": &m.inflight, "write": &m.inflightWrites, "read": &m.inflightReads,
	} {
		g := g
		reg.RegisterGaugeFunc("yprov_http_inflight",
			"Requests currently being served, by class.",
			obs.Labels{"class": class},
			func() float64 { return float64(g.Load()) })
	}
	return m
}

// route returns (creating and registering on first use) the metrics
// for one route class.
func (m *httpMetrics) route(name string) *routeMetrics {
	if v, ok := m.routes.Load(name); ok {
		return v.(*routeMetrics)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.routes.Load(name); ok {
		return v.(*routeMetrics)
	}
	rm := &routeMetrics{hist: obs.NewDurationHistogram().EnableExemplars()}
	m.reg.RegisterHistogram("yprov_http_request_seconds",
		"Request latency by route class.",
		obs.Labels{"route": name}, rm.hist)
	for i, code := range [...]string{"2xx", "4xx", "5xx", "other"} {
		rm.statuses[i] = &obs.Counter{}
		m.reg.RegisterCounter("yprov_http_requests_total",
			"Completed requests by route class and status class.",
			obs.Labels{"route": name, "code": code}, rm.statuses[i])
	}
	m.routes.Store(name, rm)
	return rm
}

// observe records one completed request. The trace ID rides along as
// the latency bucket's exemplar, so a spike in the exposition links
// straight to a retrievable trace (`yprov-debug trace <id>`).
func (m *httpMetrics) observe(route string, status int, d time.Duration, traceID string) {
	m.total.Add(1)
	idx, _ := statusClass(status)
	switch idx {
	case 0:
		m.status2x.Add(1)
	case 1:
		m.status4x.Add(1)
	case 2:
		m.status5x.Add(1)
	default:
		m.statusOt.Add(1)
	}
	rm := m.route(route)
	rm.statuses[idx].Inc()
	rm.hist.ObserveDurationExemplar(d, traceID)
}

// routeStats is the latency summary for one route class
// (milliseconds), cumulative since start. The percentiles come from
// the route's log-bucketed histogram (≤12.5% relative error).
type routeStats struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// metricsReport is the /api/v0/metrics response body.
type metricsReport struct {
	InFlight       int64 `json:"in_flight"`
	InFlightWrites int64 `json:"in_flight_writes"`
	InFlightReads  int64 `json:"in_flight_reads"`
	// ShedWrites counts mutations refused by admission control (429);
	// filled by handleMetrics, not report, since the counter lives on
	// the Service.
	ShedWrites    uint64                `json:"shed_writes"`
	TotalRequests uint64                `json:"total_requests"`
	Status2xx     uint64                `json:"status_2xx"`
	Status4xx     uint64                `json:"status_4xx"`
	Status5xx     uint64                `json:"status_5xx"`
	StatusOther   uint64                `json:"status_other"` // 1xx/3xx
	Routes        map[string]routeStats `json:"routes"`
}

// report snapshots the aggregated telemetry.
func (m *httpMetrics) report() metricsReport {
	rep := metricsReport{
		InFlight:       m.inflight.Load(),
		InFlightWrites: m.inflightWrites.Load(),
		InFlightReads:  m.inflightReads.Load(),
		TotalRequests:  m.total.Load(),
		Status2xx:      m.status2x.Load(),
		Status4xx:      m.status4x.Load(),
		Status5xx:      m.status5x.Load(),
		StatusOther:    m.statusOt.Load(),
		Routes:         map[string]routeStats{},
	}
	m.routes.Range(func(k, v interface{}) bool {
		rm := v.(*routeMetrics)
		snap := rm.hist.Snapshot()
		if snap.Count == 0 {
			return true
		}
		toMs := rm.hist.Scale() * 1e3
		rep.Routes[k.(string)] = routeStats{
			Count:  int(snap.Count),
			MeanMs: float64(snap.Sum) / float64(snap.Count) * toMs,
			P50Ms:  snap.Quantile(rm.hist, 0.50) * 1e3,
			P95Ms:  snap.Quantile(rm.hist, 0.95) * 1e3,
			P99Ms:  snap.Quantile(rm.hist, 0.99) * 1e3,
			MinMs:  float64(snap.Min) * toMs,
			MaxMs:  float64(snap.Max) * toMs,
		}
		return true
	})
	return rep
}
