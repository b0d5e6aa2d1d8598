package provclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provservice"
	"repro/internal/provstore"
)

// misbehaving server: wrong status codes and non-JSON bodies.
func badServer(t *testing.T, status int, body string) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

func TestClientSurfacesAPIErrors(t *testing.T) {
	c := badServer(t, http.StatusTeapot, `{"error": "I'm a teapot"}`)
	if err := c.Health(); err == nil || !contains(err.Error(), "teapot") {
		t.Errorf("health err = %v", err)
	}
	if _, err := c.List(); err == nil {
		t.Error("list should fail")
	}
	if _, err := c.Get("x"); err == nil {
		t.Error("get should fail")
	}
	if err := c.Delete("x"); err == nil {
		t.Error("delete should fail")
	}
	if _, err := c.Lineage("x", "ex:n", provstore.Ancestors, 1); err == nil {
		t.Error("lineage should fail")
	}
	if _, err := c.Stats(); err == nil {
		t.Error("stats should fail")
	}
	if err := c.Upload("x", prov.NewDocument()); err == nil {
		t.Error("upload should fail")
	}
}

func TestClientNonJSONErrorBody(t *testing.T) {
	c := badServer(t, http.StatusInternalServerError, "<html>boom</html>")
	err := c.Health()
	if err == nil || !contains(err.Error(), "500") {
		t.Errorf("err = %v", err)
	}
}

func TestClientGarbageSuccessBody(t *testing.T) {
	c := badServer(t, http.StatusOK, "not json at all")
	if _, err := c.List(); err == nil {
		t.Error("garbage list body must fail to decode")
	}
	if _, err := c.Get("x"); err == nil {
		t.Error("garbage document must fail to parse")
	}
}

func TestClientConnectionRefused(t *testing.T) {
	c := New("http://127.0.0.1:1") // nothing listens there
	if err := c.Health(); err == nil {
		t.Error("unreachable server must error")
	}
}

// TestClientHappyPaths exercises every client call against a real
// service instance.
func TestClientHappyPaths(t *testing.T) {
	srv := httptest.NewServer(provservice.New(provstore.New()))
	defer srv.Close()
	c := New(srv.URL)

	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	doc := prov.NewDocument()
	doc.AddEntity("ex:data", prov.Attrs{"prov:type": prov.Str("provml:Dataset")})
	doc.AddEntity("ex:model", nil)
	doc.AddActivity("ex:run", nil)
	doc.Used("ex:run", "ex:data", time.Time{})
	doc.WasGeneratedBy("ex:model", "ex:run", time.Time{})

	if err := c.Upload("d1", doc); err != nil {
		t.Fatal(err)
	}
	ids, err := c.List()
	if err != nil || len(ids) != 1 {
		t.Fatalf("list = %v %v", ids, err)
	}
	back, err := c.Get("d1")
	if err != nil || !back.Equal(doc) {
		t.Fatalf("get: %v", err)
	}
	anc, err := c.Lineage("d1", "ex:model", provstore.Ancestors, 0)
	if err != nil || len(anc) != 2 {
		t.Fatalf("lineage = %v %v", anc, err)
	}
	sub, err := c.Subgraph("d1", "ex:run", 1)
	if err != nil || sub.Stats().Entities != 2 {
		t.Fatalf("subgraph: %v %v", sub, err)
	}
	hits, err := c.SearchByType("provml:Dataset")
	if err != nil || len(hits) != 1 {
		t.Fatalf("search = %v %v", hits, err)
	}
	st, err := c.Stats()
	if err != nil || st.Documents != 1 {
		t.Fatalf("stats = %+v %v", st, err)
	}
	if err := c.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.List(); len(got) != 0 {
		t.Errorf("list after delete = %v", got)
	}
}

// TestRetryableErrors: 503 (journal outage / draining) and 429 (write
// shed) surface as typed retryable errors; permanent verdicts do not.
func TestRetryableErrors(t *testing.T) {
	cases := []struct {
		status    int
		retryable bool
	}{
		{http.StatusServiceUnavailable, true},
		{http.StatusTooManyRequests, true},
		{http.StatusNotFound, false},
		{http.StatusUnprocessableEntity, false},
		{http.StatusUnauthorized, false},
	}
	for _, tc := range cases {
		c := badServer(t, tc.status, `{"error": "synthetic"}`)
		err := c.Upload("x", prov.NewDocument())
		if err == nil {
			t.Fatalf("status %d: expected error", tc.status)
		}
		if got := errors.Is(err, ErrRetryable); got != tc.retryable {
			t.Errorf("status %d: errors.Is(ErrRetryable) = %v, want %v", tc.status, got, tc.retryable)
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != tc.status || ae.Message != "synthetic" {
			t.Errorf("status %d: APIError not surfaced: %v", tc.status, err)
		}
	}
	// Transport-level failures are not APIErrors and not retryable-typed.
	c := New("http://127.0.0.1:1")
	if err := c.Health(); err == nil || errors.Is(err, ErrRetryable) {
		t.Errorf("connection error must not be typed retryable: %v", err)
	}
}

// TestClientRequestHeaders pins what the client stamps on a request: the
// context's deadline as X-Yprov-Timeout-Ms, the context's trace ID as
// X-Yprov-Trace, the bearer token, and never X-Yprov-Min-Seq — even
// after a write handed it a sequence token.
func TestClientRequestHeaders(t *testing.T) {
	var mu sync.Mutex // the handler runs on the server's goroutines
	var seen []http.Header
	take := func() []http.Header {
		mu.Lock()
		defer mu.Unlock()
		out := seen
		seen = nil
		return out
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Clone())
		mu.Unlock()
		w.Header().Set("X-Yprov-Seq", "42")
		switch r.Method {
		case http.MethodGet:
			_, _ = w.Write([]byte(`{"entity":{"ex:e":{}}}`))
		default:
			w.WriteHeader(http.StatusCreated)
		}
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.Token = "sekrit"

	const timeout = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	tr := obs.NewTrace("client-headers-1")
	ctx = obs.WithTrace(ctx, tr)

	if err := c.UploadRawCtx(ctx, "d", []byte(`{"entity":{"ex:e":{}}}`)); err != nil {
		t.Fatal(err)
	}
	if c.LastSeq() != 42 {
		t.Fatalf("LastSeq = %d, want 42", c.LastSeq())
	}
	if err := c.UploadCtx(ctx, "b", prov.NewDocument()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	hdrs := take()
	if len(hdrs) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(hdrs))
	}
	for i, h := range hdrs {
		ms, err := strconv.ParseInt(h.Get("X-Yprov-Timeout-Ms"), 10, 64)
		if err != nil || ms <= 0 || ms > timeout.Milliseconds() {
			t.Errorf("request %d: X-Yprov-Timeout-Ms %q, want in (0, %d]", i, h.Get("X-Yprov-Timeout-Ms"), timeout.Milliseconds())
		}
		if got := h.Get(obs.TraceHeader); got != tr.ID() {
			t.Errorf("request %d: %s %q, want %q", i, obs.TraceHeader, got, tr.ID())
		}
		if got := h.Get("Authorization"); got != "Bearer sekrit" {
			t.Errorf("request %d: Authorization %q", i, got)
		}
		if v, ok := h["X-Yprov-Min-Seq"]; ok {
			t.Errorf("request %d: X-Yprov-Min-Seq sent: %q", i, v)
		}
	}

	// Without a deadline, a trace or a token, none of them is sent.
	if err := New(srv.URL).Health(); err != nil {
		t.Fatal(err)
	}
	bare := take()[0]
	for _, k := range []string{"X-Yprov-Timeout-Ms", obs.TraceHeader, "Authorization", "X-Yprov-Min-Seq"} {
		if v := bare.Get(k); v != "" {
			t.Errorf("bare request carries %s %q", k, v)
		}
	}
}

func TestRetryAfterParsing(t *testing.T) {
	for v, want := range map[string]time.Duration{
		"1": time.Second, "30": 30 * time.Second, "": 0, "soon": 0, "-5": 0,
	} {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}
	if got := parseRetryAfter(nil); got != 0 {
		t.Errorf("parseRetryAfter(nil) = %v", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
