package provservice

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/provstore"
)

// TestEscapedDocumentIDs: ids containing '/', spaces, and '%' survive
// the round trip through the URL path — splitDocPath must decode the
// escaped path instead of splitting the decoded one.
func TestEscapedDocumentIDs(t *testing.T) {
	_, c := newTestServer(t)
	ids := []string{"runs/2026/exp-1", "my doc", "50%done", "a/b/c d"}
	for _, id := range ids {
		if err := c.Upload(id, testDoc()); err != nil {
			t.Fatalf("upload %q: %v", id, err)
		}
	}
	got, err := c.List()
	if err != nil || len(got) != len(ids) {
		t.Fatalf("list = %v, %v", got, err)
	}
	for _, id := range ids {
		back, err := c.Get(id)
		if err != nil {
			t.Fatalf("get %q: %v", id, err)
		}
		if !back.Equal(testDoc()) {
			t.Errorf("document %q changed through the service", id)
		}
		anc, err := c.Lineage(id, "ex:model", provstore.Ancestors, 0)
		if err != nil || len(anc) != 2 {
			t.Errorf("lineage on %q = %v, %v", id, anc, err)
		}
	}
	if err := c.Delete(ids[0]); err != nil {
		t.Fatalf("delete %q: %v", ids[0], err)
	}
	if _, err := c.Get(ids[0]); err == nil {
		t.Errorf("get %q after delete must 404", ids[0])
	}
}

// TestMetricsEndpoint: request telemetry shows up on /metrics, per
// bounded route class and status class.
func TestMetricsEndpoint(t *testing.T) {
	srv, c := newTestServer(t)
	if err := c.Upload("m1", testDoc()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lineage("m1", "ex:model", provstore.Ancestors, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Fatal("expected 404")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{} // "family{labels}" -> value
	total := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue // a sample with an exemplar: not one read below
		}
		samples[series] = v
		if strings.HasPrefix(series, "yprov_http_requests_total{") {
			total += v
		}
	}
	if total != 4 {
		t.Errorf("yprov_http_requests_total sums to %v, want 4", total)
	}
	for series, want := range map[string]float64{
		`yprov_http_requests_total{code="2xx",route="documents/id"}`:      2,
		`yprov_http_requests_total{code="4xx",route="documents/id"}`:      1,
		`yprov_http_requests_total{code="2xx",route="documents/lineage"}`: 1,
		`yprov_http_request_seconds_count{route="documents/id"}`:          3,
		`yprov_http_request_seconds_count{route="documents/lineage"}`:     1,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

// TestRouteClass keeps the latency series space bounded: every path
// maps into the fixed route taxonomy, never into per-id names.
func TestRouteClass(t *testing.T) {
	cases := map[string]string{
		"/api/v0/documents":              "documents",
		"/api/v0/documents:batch":        "documents/batch",
		"/api/v0/documents/abc":          "documents/id",
		"/api/v0/documents/abc%2Fdef":    "documents/id",
		"/api/v0/documents/abc/lineage":  "documents/lineage",
		"/api/v0/documents/abc/subgraph": "documents/subgraph",
		"/api/v0/documents/abc/whatever": "documents/other",
		"/api/v0/search":                 "search",
		"/api/v0/lineage":                "cross-lineage",
		"/api/v0/stats":                  "stats",
		"/metrics":                       "metrics",
		"/healthz":                       "health",
		"/api/v0/metrics":                "other",
		"/api/v0/health":                 "other",
		"/explorer":                      "explorer",
		"/explorer/some-doc":             "explorer",
		"/favicon.ico":                   "other",
	}
	for path, want := range cases {
		if got := routeClass(path); got != want {
			t.Errorf("routeClass(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestAuthMiddlewareCoversAllMutations: with a token configured, every
// mutating method on every path is refused without it — the check lives
// in one middleware now, not per handler.
func TestAuthMiddlewareCoversAllMutations(t *testing.T) {
	srv, _ := newTestServer(t, WithToken("sekrit"))
	for _, m := range []string{http.MethodPut, http.MethodPost, http.MethodDelete} {
		req, err := http.NewRequest(m, srv.URL+"/api/v0/documents/x", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s without token = %d, want 401", m, resp.StatusCode)
		}
	}
	// The header must name the Bearer scheme, in any case, and carry
	// exactly the token.
	for i, tc := range []struct {
		auth string
		want int
	}{
		{"sekrit", http.StatusUnauthorized},
		{"Basic sekrit", http.StatusUnauthorized},
		{"Bearer sekri", http.StatusUnauthorized},
		{"Bearer sekrit", http.StatusCreated},
		{"bearer sekrit", http.StatusCreated},
	} {
		req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/api/v0/documents/auth-%d", srv.URL, i), strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", tc.auth)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("PUT with Authorization %q = %d, want %d", tc.auth, resp.StatusCode, tc.want)
		}
	}
}

// TestBodyLimit413: an oversized upload gets the precise 413 status
// from the body-limit middleware.
func TestBodyLimit413(t *testing.T) {
	svc := New(provstore.New())
	svc.MaxBodyBytes = 64
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	body := strings.NewReader(`{"entity": {"ex:` + strings.Repeat("e", 200) + `": {}}}`)
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/api/v0/documents/big", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", resp.StatusCode)
	}
}
