package provservice

import (
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
//	trace -> metrics -> auth -> admission -> follower guard ->
//	min-seq -> deadline -> body limit -> mux
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

// statusWriter records the status code a handler wrote, for the
// metrics layer.
type statusWriter struct {
	http.ResponseWriter
	status int
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
	return w.ResponseWriter.Write(p)
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
	case path == "/metrics":
		return "metrics"
	case path == "/healthz":
		return "health"
	case strings.HasPrefix(path, "/api/v0/repl/"):
		return "repl"
	case strings.HasPrefix(path, "/explorer"):
		return "explorer"
	default:
		return "other"
	}
}

// --- HTTP metrics ------------------------------------------------------

// httpMetrics aggregates request telemetry for GET /metrics: in-flight
// gauges, and per route class a status-class counter set and a
// log-bucketed latency histogram — cumulative, lock-free on the observe
// path, and fixed-size regardless of traffic. Route classes are a
// bounded set (see routeClass), so the route map cannot grow
// per-document-id; routes materialize lazily on first hit and
// self-register on the service's obs registry.
type httpMetrics struct {
	inflight       atomic.Int64
	inflightWrites atomic.Int64 // mutating methods; feeds admission control
	inflightReads  atomic.Int64

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

// statusClass maps an HTTP status to its counter index (see route).
func statusClass(status int) int {
	switch {
	case status >= 500:
		return 2
	case status >= 400:
		return 1
	case status >= 200 && status < 300:
		return 0
	default:
		return 3 // 1xx/3xx
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
	rm := m.route(route)
	rm.statuses[statusClass(status)].Inc()
	rm.hist.ObserveDurationExemplar(d, traceID)
}
