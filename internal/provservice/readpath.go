package provservice

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/provstore"
	"repro/internal/readcache"
)

// The read path. Every cacheable read funnels through serveRead: the
// handler canonicalizes its query into a cache key, names the version
// the answer is valid at, and supplies a fill that computes the fully
// encoded response body. serveRead consults the version-keyed cache and
// writes the body with Content-Length set up front.
//
// A read of one document (document, lineage, subgraph) goes through
// serveView first: one store lookup yields a provstore.View, and the
// 404, the version — the sequence that entry was installed under — the
// strong ETag and the body all come from that one handle. The body is
// computed from exactly the version the key and the validator name, so
// an ETag names one representation, and a write to any other document
// changes nothing a reader of this one sees: not its cache entry, not
// its validator.
//
// A store-wide read (list, search, cross-document lineage) is valid at
// the store's applied counter (StoreAPI.Version), read before the fill
// runs. The counter moves under the shard locks of the mutation that
// moves it, so a fill that starts after reading V sees every mutation
// up to V; one that lands while the fill runs may be in the body too, so
// a cached body can be newer than its key says, never older. These
// responses carry no ETag.

// maxTraversalDepth caps the ?depth= / ?hops= parameters of lineage,
// subgraph, cross-document lineage and the explorer's lineage tree (see
// parseBoundedDepth).
const maxTraversalDepth = 1024

// WithReadCache enables the version-keyed response cache, bounded to
// maxEntries encoded bodies and maxBytes total body bytes. Either
// bound <= 0 leaves caching off (reads always recompute).
func WithReadCache(maxEntries int, maxBytes int64) Option {
	return func(s *Service) {
		if maxEntries > 0 && maxBytes > 0 {
			s.cache = readcache.New(maxEntries, maxBytes)
		}
	}
}

// httpError carries a response status through a cache fill, so the
// fill can say "404, not found" without writing to the socket itself
// (fills run once per miss and may be shared by coalesced requests).
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrf(status int, format string, args ...interface{}) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// readKey canonicalizes a query into a cache key. Every part is
// length-prefixed (a uvarint), so distinct queries cannot collide
// whatever bytes their ids, names and values hold: no separator byte
// exists for a part to smuggle in.
func readKey(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 1 // a one-byte prefix covers parts under 128 bytes
	}
	var sb strings.Builder
	sb.Grow(n)
	var prefix [binary.MaxVarintLen64]byte
	for _, p := range parts {
		sb.Write(prefix[:binary.PutUvarint(prefix[:], uint64(len(p)))])
		sb.WriteString(p)
	}
	return sb.String()
}

// jsonEntry encodes v exactly like writeJSON does (compact JSON plus
// trailing newline), as a cacheable entry.
func jsonEntry(v interface{}) (readcache.Entry, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return readcache.Entry{}, httpErrf(http.StatusInternalServerError, "encode response: %v", err)
	}
	return readcache.Entry{Body: append(b, '\n'), ContentType: "application/json"}, nil
}

// makeETag derives the strong validator for (key, version). The epoch
// scopes validators to one server process: in-memory stores restart
// their sequence space from zero, so without it a client could revive
// a pre-restart ETag against unrelated state.
func (s *Service) makeETag(key string, version uint64) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	return fmt.Sprintf("\"%x-%d-%x\"", s.etagEpoch, version, h.Sum64())
}

// etagMatches implements the If-None-Match comparison against a strong
// validator: "*" matches any current representation, and a listed tag
// matches by weak comparison (RFC 9110 §13.1.2), so W/"x" matches "x".
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// serveView runs a read of the one document id: a single store lookup
// from which the 404, the version behind cache key and ETag, and the
// body all derive. fill computes the response from the view it is
// handed and makes no other call on the store.
func (s *Service) serveView(w http.ResponseWriter, r *http.Request, id, key string, fill func(provstore.View) (readcache.Entry, error)) {
	v, ok := s.store.View(id)
	if !ok {
		// Nothing to version or cache. Every fill fails on the empty
		// view, each with its endpoint's own not-found message.
		_, err := fill(v)
		writeFillErr(w, err)
		return
	}
	etag := s.makeETag(key, v.Seq())
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		// The client's representation was computed from this very
		// version of the document: nothing to recompute or resend.
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.serveRead(w, r, key, v.Seq(), etag, func() (readcache.Entry, error) { return fill(v) })
}

// serveRead answers one cacheable read valid at version: cache lookup
// with single-flight fill, then the write. etag, when not empty, goes
// out with the body.
func (s *Service) serveRead(w http.ResponseWriter, r *http.Request, key string, version uint64, etag string, fill func() (readcache.Entry, error)) {
	var (
		e   readcache.Entry
		hit bool
		err error
	)
	// The "fill" span times the actual computation; the enclosing
	// "cache" span additionally covers the lookup and any single-flight
	// wait. A hit shows a tiny cache span and no fill; a leader miss
	// shows cache ≈ fill; a coalesced request shows a large cache span
	// with no fill of its own (the leader ran it).
	tr := obs.FromContext(r.Context())
	spanned := func() (readcache.Entry, error) {
		fillSpan := tr.StartSpan("fill")
		defer fillSpan.End()
		return fill()
	}
	if s.cache != nil {
		cacheSpan := tr.StartSpan("cache")
		e, hit, err = s.cache.Do(key, version, spanned)
		cacheSpan.End()
	} else {
		e, err = spanned()
	}
	if err != nil {
		writeFillErr(w, err)
		return
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	if s.cache != nil {
		state := "miss"
		if hit {
			state = "hit"
		}
		w.Header().Set("X-Yprov-Cache", state)
	}
	ct := e.ContentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Length", strconv.Itoa(len(e.Body)))
	if _, werr := w.Write(e.Body); werr != nil {
		writeFailures.Inc()
	}
}

// writeFillErr writes the error response a failed fill asked for.
func writeFillErr(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		writeErr(w, he.status, "%s", he.msg)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}

// parseDirection parses ?direction= of the two lineage endpoints;
// absent means ancestors.
func parseDirection(w http.ResponseWriter, r *http.Request) (provstore.LineageDirection, bool) {
	switch dir := provstore.LineageDirection(r.URL.Query().Get("direction")); dir {
	case "":
		return provstore.Ancestors, true
	case provstore.Ancestors, provstore.Descendants:
		return dir, true
	default:
		writeErr(w, http.StatusBadRequest, "bad direction %q", dir)
		return "", false
	}
}

// parseBoundedDepth parses the named traversal-depth parameter
// (?depth= or ?hops=). def applies when the parameter is absent.
// Explicit values above the server cap get a 400 naming the cap.
// zeroUnbounded marks parameters where 0 historically meant "no
// bound" (lineage depth): those clamp silently to the cap, so no
// request can walk an arbitrarily deep closure while holding a shard
// read lock. For subgraph hops, 0 legitimately means "just the node"
// and is kept. The resolved value doubles as the canonical form in
// cache keys, so depth=0 and depth=<cap> share an entry — they
// compute identical responses.
func parseBoundedDepth(w http.ResponseWriter, r *http.Request, name string, def int, zeroUnbounded bool) (int, bool) {
	v := def
	if ds := r.URL.Query().Get(name); ds != "" {
		n, err := strconv.Atoi(ds)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad %s %q", name, ds)
			return 0, false
		}
		if n > maxTraversalDepth {
			writeErr(w, http.StatusBadRequest, "%s %d exceeds the server maximum of %d", name, n, maxTraversalDepth)
			return 0, false
		}
		v = n
	}
	if zeroUnbounded && v == 0 {
		v = maxTraversalDepth
	}
	return v, true
}

// cacheStats surfaces the cache counters in /api/v0/stats.
func (s *Service) cacheStats() *readcache.Stats {
	if s.cache == nil {
		return nil
	}
	st := s.cache.Stats()
	return &st
}

// registerReadObs wires read-path instruments that live at package
// scope (writeJSON cannot reach a Service) onto this service's
// registry. The counters are process-wide; with several services in
// one process each registry reports the shared totals.
func (s *Service) registerReadObs() {
	s.reg.RegisterCounter("yprov_response_encode_errors_total",
		"Responses whose JSON encoding failed before the status line was written (client saw a 500, not a truncated 200).",
		nil, &encodeErrors)
	s.reg.RegisterCounter("yprov_response_write_errors_total",
		"Response bodies the client connection failed to accept.",
		nil, &writeFailures)
	if s.cache != nil {
		s.cache.RegisterObs(s.reg)
	}
}

// encodeErrors counts writeJSON marshal failures; writeFailures counts
// socket-level body-write failures.
var encodeErrors, writeFailures obs.Counter
