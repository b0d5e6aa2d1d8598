package provservice

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provclient"
	"repro/internal/provstore"
)

func testDoc() *prov.Document {
	d := prov.NewDocument()
	d.AddEntity("ex:data", prov.Attrs{"prov:type": prov.Str("provml:Dataset")})
	d.AddEntity("ex:model", prov.Attrs{"prov:type": prov.Str("provml:Model")})
	d.AddActivity("ex:run", prov.Attrs{"prov:type": prov.Str("provml:RunExecution")})
	d.Used("ex:run", "ex:data", time.Time{})
	d.WasGeneratedBy("ex:model", "ex:run", time.Time{})
	return d
}

func newTestServer(t *testing.T, opts ...Option) (*httptest.Server, *provclient.Client) {
	t.Helper()
	svc := New(provstore.New(), opts...)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv, provclient.New(srv.URL)
}

func TestHealthAndStats(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Documents != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUploadGetListDelete(t *testing.T) {
	_, c := newTestServer(t)
	doc := testDoc()
	if err := c.Upload("run1", doc); err != nil {
		t.Fatal(err)
	}
	ids, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "run1" {
		t.Fatalf("ids = %v", ids)
	}
	back, err := c.Get("run1")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(doc) {
		t.Error("round-trip through service changed the document")
	}
	if err := c.Delete("run1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("run1"); err == nil {
		t.Error("get after delete must fail")
	}
}

func TestUploadInvalid(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.UploadRaw("bad", []byte("{not json")); err == nil {
		t.Error("garbage upload must fail")
	}
	// Structurally valid JSON but semantically broken document.
	if err := c.UploadRaw("bad2", []byte(`{"used": {"_:u1": {"prov:activity": "ex:a", "prov:entity": "ex:b"}}}`)); err == nil {
		t.Error("dangling document must be rejected")
	}
}

func TestLineageEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Upload("d", testDoc()); err != nil {
		t.Fatal(err)
	}
	anc, err := c.Lineage("d", "ex:model", provstore.Ancestors, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 2 { // run, data
		t.Fatalf("ancestors = %v", anc)
	}
	desc, err := c.Lineage("d", "ex:data", provstore.Descendants, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 1 || desc[0] != "ex:run" {
		t.Fatalf("descendants = %v", desc)
	}
	if _, err := c.Lineage("d", "ex:nope", provstore.Ancestors, 0); err == nil {
		t.Error("missing node must fail")
	}
}

func TestSubgraphEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Upload("d", testDoc()); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subgraph("d", "ex:run", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Stats().Entities != 2 || sub.Stats().Activities != 1 {
		t.Fatalf("subgraph = %+v", sub.Stats())
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Upload("d1", testDoc()); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload("d2", testDoc()); err != nil {
		t.Fatal(err)
	}
	hits, err := c.SearchByType("provml:Model")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestAuthToken(t *testing.T) {
	_, c := newTestServer(t, WithToken("sekrit"))
	// Unauthorized upload fails.
	if err := c.Upload("d", testDoc()); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("expected 401, got %v", err)
	}
	// Reads are open.
	if _, err := c.List(); err != nil {
		t.Fatal(err)
	}
	// With the token, upload works.
	c.Token = "sekrit"
	if err := c.Upload("d", testDoc()); err != nil {
		t.Fatal(err)
	}
	// Delete without token fails.
	c2 := provclient.New(c.BaseURL)
	c2.HTTP = c.HTTP
	if err := c2.Delete("d"); err == nil {
		t.Error("unauthorized delete must fail")
	}
}

func TestBodyLimit(t *testing.T) {
	svc := New(provstore.New())
	svc.MaxBodyBytes = 100
	srv := httptest.NewServer(svc)
	defer srv.Close()
	c := provclient.New(srv.URL)
	big := testDoc()
	for i := 0; i < 50; i++ {
		big.AddEntity(prov.NewQName("ex", strings.Repeat("pad", 20)+string(rune('a'+i))), nil)
	}
	if err := c.Upload("big", big); err == nil {
		t.Error("oversized upload must fail")
	}
}

func TestStatsAfterUploads(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Upload("d1", testDoc()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Documents != 1 || st.Nodes != 3 || st.Rels != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRouteSurface pins the HTTP surface: each of the service's 13
// routes answers the methods it serves (never 404 or 405), and the
// retired aliases are gone — the JSON metrics twin, the second health
// path and upload by POST. The server holds one document and has a
// flight recorder, as yprov-server always does; without one the debug
// routes answer 404.
func TestRouteSurface(t *testing.T) {
	store := provstore.New()
	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(store, WithFlightRecorder(testRecorder(t))))
	t.Cleanup(srv.Close)
	doc, err := testDoc().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(payload)
	}
	type request struct{ method, path, body string }
	routes := []struct {
		pattern  string
		requests []request
	}{
		{"/api/v0/documents", []request{{http.MethodGet, "/api/v0/documents", ""}}},
		{"/api/v0/documents:batch", []request{{http.MethodPost, "/api/v0/documents:batch", docLine(t, "b-0")}}},
		{"/api/v0/documents/", []request{
			{http.MethodPut, "/api/v0/documents/doc2", string(doc)},
			{http.MethodGet, "/api/v0/documents/doc2", ""},
			{http.MethodDelete, "/api/v0/documents/doc2", ""},
			{http.MethodGet, "/api/v0/documents/doc1/lineage?node=ex:e", ""},
			{http.MethodGet, "/api/v0/documents/doc1/subgraph?node=ex:e", ""},
		}},
		{"/api/v0/search", []request{{http.MethodGet, "/api/v0/search?type=provml:Model", ""}}},
		{"/api/v0/lineage", []request{{http.MethodGet, "/api/v0/lineage?node=ex:e", ""}}},
		{"/api/v0/stats", []request{{http.MethodGet, "/api/v0/stats", ""}}},
		{"/metrics", []request{{http.MethodGet, "/metrics", ""}}},
		{"/healthz", []request{{http.MethodGet, "/healthz", ""}}},
		{"/api/v0/debug/traces", []request{{http.MethodGet, "/api/v0/debug/traces", ""}}},
		{"/api/v0/debug/slowlog", []request{{http.MethodGet, "/api/v0/debug/slowlog", ""}}},
		{"/api/v0/debug/bundle", []request{{http.MethodGet, "/api/v0/debug/bundle", ""}}},
		{"/explorer", []request{{http.MethodGet, "/explorer", ""}}},
		{"/explorer/", []request{{http.MethodGet, "/explorer/doc1", ""}}},
	}
	if len(routes) != 13 {
		t.Fatalf("%d routes listed, want 13", len(routes))
	}
	for _, route := range routes {
		for _, r := range route.requests {
			if status, body := do(r.method, r.path, r.body); status == http.StatusNotFound || status == http.StatusMethodNotAllowed {
				t.Errorf("route %s: %s %s = %d %s", route.pattern, r.method, r.path, status, body)
			}
		}
	}
	for _, r := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/api/v0/metrics", http.StatusNotFound},
		{http.MethodGet, "/api/v0/health", http.StatusNotFound},
		{http.MethodPost, "/api/v0/documents/x", http.StatusMethodNotAllowed},
	} {
		if status, body := do(r.method, r.path, string(doc)); status != r.want {
			t.Errorf("retired %s %s = %d %s, want %d", r.method, r.path, status, body, r.want)
		}
	}
}

// storeGet and storeDelete are one-document reads and deletes through
// the store's View and Apply.
func storeGet(s *provstore.Store, id string) (*prov.Document, bool) {
	v, ok := s.View(id)
	return v.Document(), ok
}

func storeDelete(s *provstore.Store, id string) error {
	return s.Apply(context.Background(), []provstore.Op{{ID: id}})
}
