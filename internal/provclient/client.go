// Package provclient is the Go client for the yProv service API.
package provclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provstore"
)

// Client talks to a provservice endpoint.
type Client struct {
	BaseURL string
	Token   string
	HTTP    *http.Client

	// lastSeq is the highest X-Yprov-Seq write token observed on any
	// response through this client.
	lastSeq atomic.Uint64
}

// sharedTransport is one connection pool for every client in the
// process: clients are cheap to construct per call site, but TCP
// connections (and their keep-alives) should be pooled and bounded
// rather than re-dialed through http.DefaultTransport's defaults.
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          100,
	MaxIdleConnsPerHost:   16,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   5 * time.Second,
	ExpectContinueTimeout: time.Second,
}

// New builds a client for the base URL (e.g. "http://localhost:3000").
// All clients share one pooled transport with sane timeouts; replace
// c.HTTP to opt out.
func New(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP: &http.Client{
			Timeout:   30 * time.Second,
			Transport: sharedTransport,
		},
	}
}

// ErrRetryable matches (via errors.Is) API errors that signal a
// transient server-side condition — the service draining for shutdown
// or a durability outage (HTTP 503), or per-client rate limiting (HTTP
// 429). Callers should back off and retry; every other API error is a
// permanent verdict on the request.
var ErrRetryable = errors.New("provclient: retryable server condition")

// APIError is a non-2xx response decoded from the service's error
// envelope.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-provided error message, may be empty
	// RetryAfter is the server's Retry-After hint (zero when absent).
	// Retry loops should wait at least this long before the next
	// attempt.
	RetryAfter time.Duration
	// Body is the raw response body, truncated to maxErrBodyBytes. When
	// the body was not the service's JSON error envelope (a proxy's HTML
	// 502, a panic trace), Error falls back to it so the actual server
	// response is never silently dropped from diagnostics.
	Body string
}

// maxErrBodyBytes caps how much of a non-envelope error response is
// carried in APIError.Body (and quoted by Error).
const maxErrBodyBytes = 256

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("provclient: HTTP %d: %s", e.Status, e.Message)
	}
	if e.Body != "" {
		return fmt.Sprintf("provclient: HTTP %d: %s", e.Status, e.Body)
	}
	return fmt.Sprintf("provclient: HTTP %d", e.Status)
}

// Retryable reports whether the error is transient (see ErrRetryable).
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusServiceUnavailable || e.Status == http.StatusTooManyRequests
}

// Is makes errors.Is(err, ErrRetryable) true for transient statuses.
func (e *APIError) Is(target error) bool {
	return target == ErrRetryable && e.Retryable()
}

// IsRetryable reports whether err is an APIError worth retrying.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrRetryable)
}

// doCtx issues one request bounded by ctx. A context deadline is also
// forwarded to the server as X-Yprov-Timeout-Ms so its handlers stop
// working on the request (and stop queueing for fsync) once the client
// has given up, instead of only when the connection drops; a trace
// carried by ctx (obs.WithTrace) names the request in X-Yprov-Trace.
func (c *Client) doCtx(ctx context.Context, method, path string, body []byte) ([]byte, int, http.Header, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
	if err != nil {
		return nil, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set("X-Yprov-Timeout-Ms", strconv.FormatInt(ms, 10))
		}
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(obs.TraceHeader, tr.ID())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	if v := resp.Header.Get("X-Yprov-Seq"); v != "" {
		if seq, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			c.noteSeq(seq)
		}
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, resp.Header, err
	}
	return payload, resp.StatusCode, resp.Header, nil
}

// noteSeq raises the observed write-token high-water mark.
func (c *Client) noteSeq(seq uint64) {
	for {
		cur := c.lastSeq.Load()
		if seq <= cur || c.lastSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// LastSeq reports the highest X-Yprov-Seq write token this client has
// observed. A read sent with it as X-Yprov-Min-Seq is answered only by
// a server that has applied that write (503 from a lagging follower).
func (c *Client) LastSeq() uint64 { return c.lastSeq.Load() }

// apiError extracts the error envelope (and the Retry-After hint) from
// a non-2xx response.
func apiError(payload []byte, status int, hdr http.Header) error {
	var eb struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(payload, &eb)
	e := &APIError{Status: status, Message: eb.Error, RetryAfter: parseRetryAfter(hdr)}
	if e.Message == "" {
		e.Body = truncBody(payload)
	}
	return e
}

// truncBody renders a response body for APIError.Body: trimmed, capped
// at maxErrBodyBytes with an ellipsis marker.
func truncBody(payload []byte) string {
	s := strings.TrimSpace(string(payload))
	if len(s) > maxErrBodyBytes {
		s = s[:maxErrBodyBytes] + "..."
	}
	return s
}

// parseRetryAfter reads a Retry-After header in its delta-seconds form
// (the only form the service emits). Malformed or absent values map to
// zero.
func parseRetryAfter(hdr http.Header) time.Duration {
	if hdr == nil {
		return 0
	}
	v := hdr.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Health checks the service.
func (c *Client) Health() error { return c.HealthCtx(context.Background()) }

// HealthCtx checks the service, bounded by ctx.
func (c *Client) HealthCtx(ctx context.Context) error {
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/health", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError(payload, status, hdr)
	}
	return nil
}

// Upload stores a document under id.
func (c *Client) Upload(id string, doc *prov.Document) error {
	return c.UploadCtx(context.Background(), id, doc)
}

// UploadCtx stores a document under id, bounded by ctx.
func (c *Client) UploadCtx(ctx context.Context, id string, doc *prov.Document) error {
	body, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	payload, status, hdr, err := c.doCtx(ctx, http.MethodPut, "/api/v0/documents/"+url.PathEscape(id), body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return apiError(payload, status, hdr)
	}
	return nil
}

// UploadRaw stores raw PROV-JSON bytes under id.
func (c *Client) UploadRaw(id string, provJSON []byte) error {
	return c.UploadRawCtx(context.Background(), id, provJSON)
}

// UploadRawCtx stores raw PROV-JSON bytes under id, bounded by ctx.
func (c *Client) UploadRawCtx(ctx context.Context, id string, provJSON []byte) error {
	payload, status, hdr, err := c.doCtx(ctx, http.MethodPut, "/api/v0/documents/"+url.PathEscape(id), provJSON)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return apiError(payload, status, hdr)
	}
	return nil
}

// List returns all stored document ids.
func (c *Client) List() ([]string, error) { return c.ListCtx(context.Background()) }

// ListCtx returns all stored document ids, bounded by ctx.
func (c *Client) ListCtx(ctx context.Context) ([]string, error) {
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/documents", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(payload, status, hdr)
	}
	var out struct {
		Documents []string `json:"documents"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, err
	}
	return out.Documents, nil
}

// Get fetches a document.
func (c *Client) Get(id string) (*prov.Document, error) {
	return c.GetCtx(context.Background(), id)
}

// GetCtx fetches a document, bounded by ctx.
func (c *Client) GetCtx(ctx context.Context, id string) (*prov.Document, error) {
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/documents/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(payload, status, hdr)
	}
	return prov.ParseJSON(payload)
}

// Delete removes a document.
func (c *Client) Delete(id string) error {
	return c.DeleteCtx(context.Background(), id)
}

// DeleteCtx removes a document, bounded by ctx.
func (c *Client) DeleteCtx(ctx context.Context, id string) error {
	payload, status, hdr, err := c.doCtx(ctx, http.MethodDelete, "/api/v0/documents/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return apiError(payload, status, hdr)
	}
	return nil
}

// Lineage queries ancestors/descendants of a node.
func (c *Client) Lineage(id string, node prov.QName, dir provstore.LineageDirection, depth int) ([]prov.QName, error) {
	return c.LineageCtx(context.Background(), id, node, dir, depth)
}

// LineageCtx queries ancestors/descendants of a node, bounded by ctx.
func (c *Client) LineageCtx(ctx context.Context, id string, node prov.QName, dir provstore.LineageDirection, depth int) ([]prov.QName, error) {
	q := url.Values{}
	q.Set("node", string(node))
	q.Set("direction", string(dir))
	if depth > 0 {
		q.Set("depth", strconv.Itoa(depth))
	}
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet,
		"/api/v0/documents/"+url.PathEscape(id)+"/lineage?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(payload, status, hdr)
	}
	var out struct {
		Nodes []prov.QName `json:"nodes"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, err
	}
	return out.Nodes, nil
}

// Subgraph fetches the neighborhood of a node as a document.
func (c *Client) Subgraph(id string, node prov.QName, hops int) (*prov.Document, error) {
	return c.SubgraphCtx(context.Background(), id, node, hops)
}

// SubgraphCtx fetches the neighborhood of a node, bounded by ctx.
func (c *Client) SubgraphCtx(ctx context.Context, id string, node prov.QName, hops int) (*prov.Document, error) {
	q := url.Values{}
	q.Set("node", string(node))
	q.Set("hops", strconv.Itoa(hops))
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet,
		"/api/v0/documents/"+url.PathEscape(id)+"/subgraph?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(payload, status, hdr)
	}
	return prov.ParseJSON(payload)
}

// CrossLineage queries lineage across every stored document.
func (c *Client) CrossLineage(node prov.QName, dir provstore.LineageDirection, depth int) ([]provstore.CrossNode, error) {
	return c.CrossLineageCtx(context.Background(), node, dir, depth)
}

// CrossLineageCtx queries lineage across every document, bounded by ctx.
func (c *Client) CrossLineageCtx(ctx context.Context, node prov.QName, dir provstore.LineageDirection, depth int) ([]provstore.CrossNode, error) {
	q := url.Values{}
	q.Set("node", string(node))
	q.Set("direction", string(dir))
	if depth > 0 {
		q.Set("depth", strconv.Itoa(depth))
	}
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/lineage?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(payload, status, hdr)
	}
	var out struct {
		Nodes []provstore.CrossNode `json:"nodes"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, err
	}
	return out.Nodes, nil
}

// SearchByType finds elements by prov:type across all documents.
func (c *Client) SearchByType(typeName string) ([]provstore.SearchResult, error) {
	return c.SearchByTypeCtx(context.Background(), typeName)
}

// SearchByTypeCtx finds elements by prov:type, bounded by ctx.
func (c *Client) SearchByTypeCtx(ctx context.Context, typeName string) ([]provstore.SearchResult, error) {
	q := url.Values{}
	q.Set("type", typeName)
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/search?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, apiError(payload, status, hdr)
	}
	var out struct {
		Results []provstore.SearchResult `json:"results"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Stats fetches store statistics.
func (c *Client) Stats() (provstore.Stats, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx fetches store statistics, bounded by ctx.
func (c *Client) StatsCtx(ctx context.Context) (provstore.Stats, error) {
	payload, status, hdr, err := c.doCtx(ctx, http.MethodGet, "/api/v0/stats", nil)
	if err != nil {
		return provstore.Stats{}, err
	}
	if status != http.StatusOK {
		return provstore.Stats{}, apiError(payload, status, hdr)
	}
	var out provstore.Stats
	if err := json.Unmarshal(payload, &out); err != nil {
		return provstore.Stats{}, err
	}
	return out, nil
}
