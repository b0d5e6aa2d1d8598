// Package provservice exposes the provstore over the yProv RESTful API:
//
//	GET    /api/v0/documents                 list document ids (?limit=&cursor=; NDJSON via Accept)
//	POST   /api/v0/documents:batch           bulk upload (NDJSON, atomic; see batch.go)
//	PUT    /api/v0/documents/{id}            upload a PROV-JSON document
//	GET    /api/v0/documents/{id}            fetch a document (strong ETag / If-None-Match)
//	DELETE /api/v0/documents/{id}            delete a document
//	GET    /api/v0/documents/{id}/lineage    ?node=ex:x&direction=ancestors&depth=3 (ETag)
//	GET    /api/v0/documents/{id}/subgraph   ?node=ex:x&hops=2 (ETag)
//	GET    /api/v0/search                    ?type=provml:Model | ?key=provml:name&value=x (?limit=&cursor=)
//	GET    /api/v0/stats                     store statistics (+ replication state)
//	GET    /api/v0/metrics                   HTTP telemetry (in-flight, latency)
//	GET    /healthz                          liveness; degraded on lagged followers
//	GET    /api/v0/repl/{stream,status,snapshot}  replication (primaries; see internal/repl)
//	POST   /api/v0/repl/ack                  follower progress reports
//
// Document ids in paths are URL-escaped; ids containing '/' or spaces
// must be percent-encoded (%2F, %20) as provclient does.
//
// All responses are JSON. The service is a layered stack: request
// logging, telemetry, per-client rate limiting, bearer-token auth, and
// body-size limits are middleware (see middleware.go) wrapped around
// thin handlers that talk to the store only through the StoreAPI
// interface.
package provservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provstore"
	"repro/internal/readcache"
	"repro/internal/repl"
)

// StoreAPI is everything the HTTP layer needs from a document store:
// one write (Apply), one single-document read (View) and the store-wide
// reads with the one counter they validate against (Version).
// *provstore.Store implements it; tests and alternative back-ends can
// substitute their own.
type StoreAPI interface {
	// Apply is the one write: puts and deletes, single or batched, as an
	// atomic unit. It takes the request context: the deadline installed
	// by the withDeadline middleware propagates into shard-lock
	// acquisition and the group-commit wait, so abandoned requests stop
	// consuming fsync tickets. Context expiry surfaces as
	// context.Canceled / context.DeadlineExceeded, never wrapped in
	// store error types. Apply keeps each Op.Doc — the store installs
	// the document itself, so a handler passes one nothing else
	// references and only reads it afterwards — while Op.Raw stays the
	// caller's and need only hold still until Apply returns.
	Apply(ctx context.Context, ops []provstore.Op) error
	// View is the one single-document read: a handle on id's current
	// version from which a handler takes the 404 (false: not stored),
	// the version behind its cache key and ETag (View.Seq), and the body
	// (Document, Lineage, Subgraph) — all from the same immutable entry,
	// so they agree whatever is written meanwhile.
	View(id string) (provstore.View, bool)
	List() []string
	FindByType(typeName string) []provstore.SearchResult
	FindByAttr(key string, value interface{}) []provstore.SearchResult
	CrossDocLineage(start prov.QName, dir provstore.LineageDirection, depth int) ([]provstore.CrossNode, error)
	// ListAfter is the cursor-pagination primitive: up to limit ids
	// strictly greater than after, sorted, plus whether more remain.
	ListAfter(after string, limit int) ([]string, bool)
	// Version is what the store-wide reads above (list, search,
	// cross-document lineage) validate against: the sequence of the
	// newest mutation visible to readers. Monotone; moves with every
	// mutation, on stores with and without a journal.
	Version() uint64
	Stats() provstore.Stats
	// AppliedSeq is the journal high-water mark backing the X-Yprov-Seq
	// write token and the X-Yprov-Min-Seq read-your-writes check (0 for
	// stores with no journal).
	AppliedSeq() uint64
	// FailStop reports the journal's latched fail-stop reason ("" while
	// healthy); /healthz degrades and mutations are refused once set.
	FailStop() string
	// CommitQueue feeds admission control: staged-but-not-durable record
	// count and the estimated group-commit wait.
	CommitQueue() (int64, time.Duration)
	Close() error
}

var _ StoreAPI = (*provstore.Store)(nil)

// Service is the HTTP front-end over a document store.
type Service struct {
	store   StoreAPI
	token   string
	logger  *log.Logger
	limiter *clientLimiter
	metrics *httpMetrics
	handler http.Handler

	// Observability (see internal/obs and middleware.go). reg collects
	// every instrument the service and its store register; GET /metrics
	// exposes it in Prometheus text format. logJSON switches request
	// logs to one JSON object per line; slowThreshold makes requests at
	// or over the threshold log with their span breakdown even when no
	// request logger is configured.
	reg           *obs.Registry
	logJSON       bool
	slowThreshold time.Duration
	// MaxBodyBytes bounds uploaded document size (default 64 MiB). For
	// batch requests this caps the whole NDJSON stream.
	MaxBodyBytes int64
	// MaxLineBytes bounds one NDJSON line in batch uploads (default
	// 8 MiB). Like MaxBodyBytes, set before serving.
	MaxLineBytes int
	// MaxBatchDocs bounds the number of documents one batch request may
	// carry (default 10000).
	MaxBatchDocs int

	// Replication wiring (see WithReplicationPrimary / WithReplicationFollower).
	replPrimary  *repl.Server
	replFollower *repl.Follower
	primaryURL   string // follower: where mutations should go instead
	maxLag       uint64 // follower: /healthz degrades beyond this record lag

	// Overload hardening (see admission.go).
	admission      *admission    // write shedding; nil = disabled
	requestTimeout time.Duration // per-request context deadline; 0 = none

	// Flight recorder (see internal/flightrec and debug.go): retains
	// sampled completed-request traces, a per-route slow-query log, and
	// anomaly-frozen diagnostic bundles, served under /api/v0/debug/.
	// nil = disabled.
	flightrec *flightrec.Recorder

	// Read path (see readpath.go): the version-keyed response cache
	// (nil = disabled), the traversal-depth cap for ?depth=/?hops=, and
	// the process epoch scoping ETag validators to this server run.
	cache             *readcache.Cache
	maxTraversalDepth int
	etagEpoch         uint64

	// Graceful shutdown: Close refuses new requests, drains in-flight
	// ones, then flushes and closes the store. In-flight requests hold
	// drain.RLock; Close takes the write lock to wait them out.
	closing   atomic.Bool
	drain     sync.RWMutex
	closeOnce sync.Once
	closeErr  error
}

// Option configures the service.
type Option func(*Service)

// WithToken requires the bearer token on mutating requests.
func WithToken(token string) Option {
	return func(s *Service) { s.token = token }
}

// WithRateLimit enforces a per-client request budget of rps requests
// per second with the given burst (burst <= 0 derives 2*rps). Clients
// over budget get 429 with Retry-After. Health checks are exempt.
func WithRateLimit(rps float64, burst int) Option {
	return func(s *Service) {
		if rps > 0 {
			s.limiter = newClientLimiter(rps, burst)
		}
	}
}

// WithLogger emits one log line per request through l.
func WithLogger(l *log.Logger) Option {
	return func(s *Service) { s.logger = l }
}

// WithRegistry collects the service's metrics into reg instead of a
// private registry, so a server can register store/WAL/replication
// instruments alongside and expose all of them at GET /metrics.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Service) { s.reg = reg }
}

// WithLogFormat selects the request-log format: "json" emits one JSON
// object per request, anything else keeps the human-readable text line.
func WithLogFormat(format string) Option {
	return func(s *Service) { s.logJSON = format == "json" }
}

// WithSlowRequestThreshold logs requests taking at least d with their
// per-span timing breakdown (lock, stage, commit, parse, ...), even
// when no request logger is configured. 0 disables slow-request
// flagging.
func WithSlowRequestThreshold(d time.Duration) Option {
	return func(s *Service) { s.slowThreshold = d }
}

// WithFlightRecorder retains recently completed request traces, the
// per-route slow-query log, and anomaly-frozen diagnostic bundles in
// rec, and mounts the /api/v0/debug/{traces,slowlog,bundle} endpoints
// over it. The recorder's instruments (and runtime-telemetry gauges)
// are registered on the service's metrics registry. The caller owns
// rec's lifecycle (Close).
func WithFlightRecorder(rec *flightrec.Recorder) Option {
	return func(s *Service) { s.flightrec = rec }
}

// FlightRecorder exposes the service's flight recorder (nil when
// disabled) — servers use it to freeze bundles on external anomalies
// (replication stalls, SIGQUIT dumps).
func (s *Service) FlightRecorder() *flightrec.Recorder { return s.flightrec }

// WithReplicationPrimary mounts the replication endpoints (stream,
// status, snapshot, ack) and surfaces primary-side replication state
// in /api/v0/stats. Any journaled server can act as a primary; the
// option costs nothing until a follower connects.
func WithReplicationPrimary(rs *repl.Server) Option {
	return func(s *Service) { s.replPrimary = rs }
}

// WithReplicationFollower marks the service a read-only replica fed by
// the given follower loop: mutating requests get 403 with a Location
// hint to the primary, /api/v0/stats gains the follower's replication
// state, and /healthz (and /api/v0/health) report degraded once
// replication lag exceeds maxLag records (0 disables the lag check).
func WithReplicationFollower(f *repl.Follower, primaryURL string, maxLag uint64) Option {
	return func(s *Service) {
		s.replFollower = f
		s.primaryURL = primaryURL
		s.maxLag = maxLag
	}
}

// New builds a service over the given store.
func New(store StoreAPI, opts ...Option) *Service {
	s := &Service{
		store:             store,
		MaxBodyBytes:      64 << 20,
		maxTraversalDepth: defaultMaxTraversalDepth,
		etagEpoch:         uint64(time.Now().UnixNano()),
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.metrics = newHTTPMetrics(s.reg)
	if s.admission != nil {
		s.admission.register(s.reg)
	}
	s.registerReadObs()
	if s.flightrec != nil {
		s.flightrec.RegisterObs(s.reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v0/documents", s.handleDocuments)
	mux.HandleFunc("/api/v0/documents:batch", s.handleBatch)
	mux.HandleFunc("/api/v0/documents/", s.handleDocument)
	mux.HandleFunc("/api/v0/search", s.handleSearch)
	mux.HandleFunc("/api/v0/lineage", s.handleCrossLineage)
	mux.HandleFunc("/api/v0/stats", s.handleStats)
	mux.HandleFunc("/api/v0/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics", s.handlePromMetrics)
	mux.HandleFunc("/api/v0/debug/traces", s.handleDebugTraces)
	mux.HandleFunc("/api/v0/debug/slowlog", s.handleDebugSlowlog)
	mux.HandleFunc("/api/v0/debug/bundle", s.handleDebugBundle)
	mux.HandleFunc("/api/v0/health", s.handleHealth)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/explorer", s.handleExplorerIndex)
	mux.HandleFunc("/explorer/", s.handleExplorerDoc)
	if s.replPrimary != nil {
		mux.HandleFunc(repl.PathStream, s.replPrimary.HandleStream)
		mux.HandleFunc(repl.PathStatus, s.replPrimary.HandleStatus)
		mux.HandleFunc(repl.PathSnapshot, s.replPrimary.HandleSnapshot)
		mux.HandleFunc(repl.PathAck, s.replPrimary.HandleAck)
	}
	s.handler = chain(mux,
		s.withTrace,
		s.withLogging,
		s.withMetrics,
		s.withRateLimit,
		s.withAuth,
		s.withAdmission,
		s.withFollowerGuard,
		s.withMinSeq,
		s.withDeadline,
		s.withBodyLimit,
	)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, "service is shutting down")
		return
	}
	s.drain.RLock()
	defer s.drain.RUnlock()
	// Re-check under the lock: Close may have drained between the fast
	// check and RLock, and must never observe the store in use after
	// its write lock.
	if s.closing.Load() {
		writeErr(w, http.StatusServiceUnavailable, "service is shutting down")
		return
	}
	s.handler.ServeHTTP(w, r)
}

// drainTimeout bounds how long Close waits for in-flight handlers. A
// handler stuck on a slow client (the HTTP server's own shutdown
// deadline has usually expired by then) must not hold the journal
// flush hostage forever; stragglers see the closed store and get 500s.
const drainTimeout = 10 * time.Second

// Close drains in-flight requests (new ones get 503), then flushes and
// closes the underlying store so every acknowledged mutation is durable
// before the process exits. Idempotent — and every caller, including
// concurrent ones, blocks until the close has actually completed and
// gets its real result (a caller must never proceed to process exit
// while the flush is still running).
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		deadline := time.Now().Add(drainTimeout)
		for {
			if s.drain.TryLock() {
				// Drained: no handler is mid-use. Release immediately so
				// requests that passed the fast closing check but have
				// not RLocked yet reach their own re-check (and 503)
				// instead of blocking on a held write lock.
				s.drain.Unlock()
				break
			}
			if time.Now().After(deadline) {
				break // proceed without the stragglers; they get 500s
			}
			time.Sleep(10 * time.Millisecond)
		}
		s.closeErr = s.store.Close()
	})
	return s.closeErr
}

// maxLineBytes resolves the per-line batch cap.
func (s *Service) maxLineBytes() int {
	if s.MaxLineBytes > 0 {
		return s.MaxLineBytes
	}
	return 8 << 20
}

// maxBatchDocs resolves the per-batch document-count cap.
func (s *Service) maxBatchDocs() int {
	if s.MaxBatchDocs > 0 {
		return s.MaxBatchDocs
	}
	return 10000
}

// setSeqHeader stamps a successful mutation response with the journal
// high-water mark as X-Yprov-Seq — the read-your-writes token a
// client echoes back as X-Yprov-Min-Seq on reads. The
// watermark is at least the mutation's own sequence, which is all the
// token needs to guarantee. In-memory stores (seq 0) issue no token.
func (s *Service) setSeqHeader(w http.ResponseWriter) {
	if seq := s.store.AppliedSeq(); seq > 0 {
		w.Header().Set("X-Yprov-Seq", strconv.FormatUint(seq, 10))
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// jsonBufPool recycles writeJSON encode buffers; buffers that grew
// past maxPooledBuf are dropped so one giant response cannot pin its
// allocation forever.
var jsonBufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

// writeJSON encodes v into a pooled buffer BEFORE committing a status
// line. The old encode-straight-to-socket version wrote the 200 first,
// so a marshal failure mid-encode produced a silently truncated 200
// body; now a failed encode is counted and surfaces as a real 500.
// Socket write failures after the header cannot change the status —
// they are counted (yprov_response_write_errors_total) and the
// connection is left to die. Responses too large to buffer should use
// the streaming read path (NDJSON / pagination) instead.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			jsonBufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		encodeErrors.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf("encode response: %v", err)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		writeFailures.Inc()
	}
}

// writeStoreErr answers a failed store write. A context expiry is a 503
// with a Retry-After floor (not 408/504: the server is shedding its own
// queue wait, and retryable-server-error is the contract provclient
// already honors); a journal failure is a 503 too — a durability
// outage, not a bad request, so a 4xx would tell clients to stop
// retrying a server-side failure; a read-only replica answers 403 (the
// second line of defense behind the follower guard). Anything else is
// the request's own fault and gets the caller's fallback status.
func writeStoreErr(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "request deadline exceeded before the write was durable")
	case errors.Is(err, provstore.ErrJournal):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, provstore.ErrReadOnly):
		writeErr(w, http.StatusForbidden, "%v", err)
	default:
		writeErr(w, fallback, "%v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// authorized checks the bearer token (used by the auth middleware).
func (s *Service) authorized(r *http.Request) bool {
	if s.token == "" {
		return true
	}
	h := r.Header.Get("Authorization")
	return strings.TrimPrefix(h, "Bearer ") == s.token
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	// A latched journal means this server can no longer make writes
	// durable; load balancers must route writes elsewhere even though
	// reads still work.
	if reason := s.store.FailStop(); reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"status": "degraded",
			"reason": "journal fail-stop",
			"detail": reason,
		})
		return
	}
	if s.replFollower != nil && s.maxLag > 0 {
		st := s.replFollower.Status()
		// Stale matters as much as lag: during a partition the lag
		// figures freeze at the last successful primary contact, so a
		// cut-off follower would otherwise report a small stale lag
		// forever and keep passing health checks.
		if st.FollowerLag > s.maxLag || st.Stale {
			reason := "replication lag"
			if st.Stale {
				reason = "no primary contact"
			}
			writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
				"status":           "degraded",
				"reason":           reason,
				"lag_records":      st.FollowerLag,
				"max_lag":          s.maxLag,
				"contact_age_secs": st.ContactAgeSecs,
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "metrics is GET-only")
		return
	}
	rep := s.metrics.report()
	if s.admission != nil {
		rep.ShedWrites = s.admission.shed.Load()
	}
	writeJSON(w, http.StatusOK, rep)
}

// handlePromMetrics is the Prometheus text-format twin of
// /api/v0/metrics: every instrument registered with the service's
// registry (HTTP histograms, WAL, store, replication, admission)
// rendered in exposition format 0.0.4.
func (s *Service) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "metrics is GET-only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Service) handleDocuments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "use GET to list, PUT /api/v0/documents/{id} to upload")
		return
	}
	limit, after, ok := parsePage(w, r)
	if !ok {
		return
	}
	if wantsNDJSON(r) {
		s.streamDocuments(w, after, limit)
		return
	}
	key := readKey("list", after, strconv.Itoa(limit))
	s.serveRead(w, r, key, s.store.Version(), "", func() (readcache.Entry, error) {
		body := map[string]interface{}{}
		if limit > 0 {
			ids, more := s.store.ListAfter(after, limit)
			body["documents"] = ids
			if more && len(ids) > 0 {
				body["next_cursor"] = encodeCursor(ids[len(ids)-1])
			}
		} else {
			body["documents"] = s.store.List()
		}
		return jsonEntry(body)
	})
}

// splitDocPath parses /api/v0/documents/{id}[/{verb}] from the
// *escaped* request path and URL-decodes the id, so ids containing
// '/' (sent as %2F), spaces, or other reserved characters route to the
// right document instead of a 404. Undecodable ids are kept verbatim.
func splitDocPath(escapedPath string) (id, verb string) {
	rest := strings.TrimPrefix(escapedPath, "/api/v0/documents/")
	parts := strings.SplitN(rest, "/", 2)
	id = parts[0]
	if u, err := url.PathUnescape(id); err == nil {
		id = u
	}
	if len(parts) == 2 {
		verb = parts[1]
	}
	return id, verb
}

func (s *Service) handleDocument(w http.ResponseWriter, r *http.Request) {
	id, verb := splitDocPath(r.URL.EscapedPath())
	if id == "" {
		writeErr(w, http.StatusBadRequest, "missing document id")
		return
	}
	switch verb {
	case "":
		s.handleDocumentCRUD(w, r, id)
	case "lineage":
		s.handleLineage(w, r, id)
	case "subgraph":
		s.handleSubgraph(w, r, id)
	default:
		writeErr(w, http.StatusNotFound, "unknown endpoint %q", verb)
	}
}

func (s *Service) handleDocumentCRUD(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		s.serveView(w, r, id, readKey("doc", id), func(v provstore.View) (readcache.Entry, error) {
			doc := v.Document()
			if doc == nil {
				return readcache.Entry{}, httpErrf(http.StatusNotFound, "document %q does not exist", id)
			}
			payload, err := doc.MarshalIndent()
			if err != nil {
				return readcache.Entry{}, httpErrf(http.StatusInternalServerError, "marshal: %v", err)
			}
			return readcache.Entry{Body: payload, ContentType: "application/json"}, nil
		})
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeErr(w, http.StatusRequestEntityTooLarge, "document exceeds %d bytes", mbe.Limit)
				return
			}
			writeErr(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		tr := obs.FromContext(r.Context())
		parseSpan := tr.StartSpan("parse")
		doc, err := prov.ParseJSON(body)
		parseSpan.End()
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid PROV-JSON: %v", err)
			return
		}
		if err := s.store.Apply(r.Context(), []provstore.Op{{ID: id, Doc: doc}}); err != nil {
			writeStoreErr(w, err, http.StatusUnprocessableEntity)
			return
		}
		s.setSeqHeader(w)
		writeJSON(w, http.StatusCreated, map[string]interface{}{"id": id, "stats": doc.Stats()})
	case http.MethodDelete:
		if err := s.store.Apply(r.Context(), []provstore.Op{{ID: id}}); err != nil {
			writeStoreErr(w, err, http.StatusNotFound)
			return
		}
		s.setSeqHeader(w)
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "unsupported method %s", r.Method)
	}
}

func (s *Service) handleLineage(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "lineage is GET-only")
		return
	}
	node := r.URL.Query().Get("node")
	if node == "" {
		writeErr(w, http.StatusBadRequest, "missing ?node=")
		return
	}
	dir, ok := parseDirection(w, r)
	if !ok {
		return
	}
	depth, ok := s.parseBoundedDepth(w, r, "depth", 0, true)
	if !ok {
		return
	}
	key := readKey("lineage", id, node, string(dir), strconv.Itoa(depth))
	s.serveView(w, r, id, key, func(v provstore.View) (readcache.Entry, error) {
		nodes, err := v.Lineage(prov.QName(node), dir, depth)
		if err != nil {
			return readcache.Entry{}, httpErrf(http.StatusNotFound, "%v", err)
		}
		return jsonEntry(map[string]interface{}{
			"document": id, "node": node, "direction": dir, "depth": depth, "nodes": nodes,
		})
	})
}

func (s *Service) handleSubgraph(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "subgraph is GET-only")
		return
	}
	node := r.URL.Query().Get("node")
	if node == "" {
		writeErr(w, http.StatusBadRequest, "missing ?node=")
		return
	}
	hops, ok := s.parseBoundedDepth(w, r, "hops", 1, false)
	if !ok {
		return
	}
	key := readKey("subgraph", id, node, strconv.Itoa(hops))
	s.serveView(w, r, id, key, func(v provstore.View) (readcache.Entry, error) {
		sub, err := v.Subgraph(prov.QName(node), hops)
		if err != nil {
			return readcache.Entry{}, httpErrf(http.StatusNotFound, "%v", err)
		}
		payload, err := sub.MarshalIndent()
		if err != nil {
			return readcache.Entry{}, httpErrf(http.StatusInternalServerError, "marshal: %v", err)
		}
		return readcache.Entry{Body: payload, ContentType: "application/json"}, nil
	})
}

func (s *Service) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "search is GET-only")
		return
	}
	q := r.URL.Query()
	var find func() []provstore.SearchResult
	var key string
	switch {
	case q.Get("type") != "":
		t := q.Get("type")
		find = func() []provstore.SearchResult { return s.store.FindByType(t) }
		key = readKey("search", "type", t)
	case q.Get("key") != "" && q.Get("value") != "":
		k, v := q.Get("key"), q.Get("value")
		find = func() []provstore.SearchResult { return s.store.FindByAttr(k, v) }
		key = readKey("search", "attr", k, v)
	default:
		writeErr(w, http.StatusBadRequest, "need ?type= or ?key=&value=")
		return
	}
	limit, after, ok := parsePage(w, r)
	if !ok {
		return
	}
	if wantsNDJSON(r) {
		hits, _ := pageSearch(find(), after, limit)
		nw := newNDJSON(w)
		for _, h := range hits {
			if !nw.write(h) {
				return
			}
		}
		nw.finish()
		return
	}
	key = readKey(key, after, strconv.Itoa(limit))
	s.serveRead(w, r, key, s.store.Version(), "", func() (readcache.Entry, error) {
		hits, next := pageSearch(find(), after, limit)
		body := map[string]interface{}{"results": hits}
		if next != "" {
			body["next_cursor"] = next
		}
		return jsonEntry(body)
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	body := struct {
		provstore.Stats
		Replication *repl.Status     `json:"replication,omitempty"`
		ReadCache   *readcache.Stats `json:"read_cache,omitempty"`
	}{Stats: s.store.Stats(), ReadCache: s.cacheStats()}
	switch {
	case s.replFollower != nil:
		body.Replication = s.replFollower.Status()
	case s.replPrimary != nil:
		body.Replication = s.replPrimary.Status()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleCrossLineage is the store-wide lineage endpoint:
// GET /api/v0/lineage?node=ex:x&direction=descendants&depth=3
func (s *Service) handleCrossLineage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "lineage is GET-only")
		return
	}
	node := r.URL.Query().Get("node")
	if node == "" {
		writeErr(w, http.StatusBadRequest, "missing ?node=")
		return
	}
	dir, ok := parseDirection(w, r)
	if !ok {
		return
	}
	depth, ok := s.parseBoundedDepth(w, r, "depth", 0, true)
	if !ok {
		return
	}
	limit, after, ok := parsePage(w, r)
	if !ok {
		return
	}
	if wantsNDJSON(r) {
		nodes, err := s.store.CrossDocLineage(prov.QName(node), dir, depth)
		if err != nil {
			writeErr(w, http.StatusNotFound, "%v", err)
			return
		}
		page, _ := pageCross(nodes, after, limit)
		nw := newNDJSON(w)
		for _, n := range page {
			if !nw.write(n) {
				return
			}
		}
		nw.finish()
		return
	}
	key := readKey("xlineage", node, string(dir), strconv.Itoa(depth), after, strconv.Itoa(limit))
	s.serveRead(w, r, key, s.store.Version(), "", func() (readcache.Entry, error) {
		nodes, err := s.store.CrossDocLineage(prov.QName(node), dir, depth)
		if err != nil {
			return readcache.Entry{}, httpErrf(http.StatusNotFound, "%v", err)
		}
		page, next := pageCross(nodes, after, limit)
		body := map[string]interface{}{
			"node": node, "direction": dir, "depth": depth, "nodes": page,
		}
		if next != "" {
			body["next_cursor"] = next
		}
		return jsonEntry(body)
	})
}
