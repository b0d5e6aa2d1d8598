package provservice

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provstore"
)

// revMarker matches the fixed-width revision stamp revDoc embeds.
var revMarker = regexp.MustCompile(`[0-9]{8}`)

// revDoc builds a document whose entity carries a fixed-width revision
// marker, so a reader can order the states it observes by comparing
// the marker strings.
func revDoc(rev int) *prov.Document {
	d := prov.NewDocument()
	d.AddEntity("ex:e", prov.Attrs{"provml:rev": prov.Str(fmt.Sprintf("%08d", rev))})
	d.AddActivity("ex:a", nil)
	d.WasGeneratedBy("ex:e", "ex:a", time.Time{})
	return d
}

// cachedServer builds a service with the read cache enabled over a
// store with the given shard count.
func cachedServer(t *testing.T, shards int, opts ...Option) (*httptest.Server, *provstore.Store) {
	t.Helper()
	store := provstore.NewSharded(shards)
	svc := New(store, append([]Option{WithReadCache(1024, 16<<20)}, opts...)...)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv, store
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestETagConditionalGet: document GETs and lineage carry a strong
// ETag; If-None-Match on an unchanged store answers 304 with no body;
// any write to the document invalidates the validator.
func TestETagConditionalGet(t *testing.T) {
	srv, store := cachedServer(t, 4)
	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/api/v0/documents/doc1",
		"/api/v0/documents/doc1/lineage?node=ex:e&direction=ancestors",
	} {
		t.Run(path, func(t *testing.T) {
			resp, body := get(t, srv.URL+path, nil)
			if resp.StatusCode != 200 || len(body) == 0 {
				t.Fatalf("GET: %d, %d bytes", resp.StatusCode, len(body))
			}
			etag := resp.Header.Get("ETag")
			if etag == "" || !strings.HasPrefix(etag, "\"") {
				t.Fatalf("ETag = %q, want a quoted strong validator", etag)
			}
			resp, notModBody := get(t, srv.URL+path, map[string]string{"If-None-Match": etag})
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("conditional GET = %d, want 304", resp.StatusCode)
			}
			if len(notModBody) != 0 {
				t.Fatalf("304 carried %d body bytes", len(notModBody))
			}
			// If-None-Match compares weakly: a proxy's weakened copy of the
			// tag still matches.
			weak := map[string]string{"If-None-Match": `"other", W/` + etag}
			if resp, _ := get(t, srv.URL+path, weak); resp.StatusCode != http.StatusNotModified {
				t.Fatalf("conditional GET with the weak tag = %d, want 304", resp.StatusCode)
			}
			// A write to the document makes the validator stale: full 200
			// with a fresh ETag and the new content.
			if err := store.Put("doc1", revDoc(2)); err != nil {
				t.Fatal(err)
			}
			resp, body2 := get(t, srv.URL+path, map[string]string{"If-None-Match": etag})
			if resp.StatusCode != 200 {
				t.Fatalf("post-write conditional GET = %d, want 200", resp.StatusCode)
			}
			if newTag := resp.Header.Get("ETag"); newTag == etag || newTag == "" {
				t.Fatalf("ETag not refreshed after write: %q", newTag)
			}
			if resp, _ := get(t, srv.URL+path, weak); resp.StatusCode != 200 {
				t.Fatalf("post-write conditional GET with the weak tag = %d, want 200", resp.StatusCode)
			}
			if string(body2) == string(body) && strings.Contains(string(body), "rev") {
				t.Fatal("post-write body identical to pre-write body")
			}
		})
	}
}

// docReadPaths are the three single-document reads of doc1.
var docReadPaths = []string{
	"/api/v0/documents/doc1",
	"/api/v0/documents/doc1/lineage?node=ex:e&direction=ancestors",
	"/api/v0/documents/doc1/subgraph?node=ex:e&hops=1",
}

// storeWideReadPaths are the reads whose answer depends on every
// stored document.
var storeWideReadPaths = []string{
	"/api/v0/documents",
	"/api/v0/search?key=provml:rev&value=00000001",
	"/api/v0/lineage?node=ex:e&direction=ancestors",
}

func deleteDoc(t *testing.T, url, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/api/v0/documents/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s = %d", id, resp.StatusCode)
	}
}

// TestWritesToOtherDocumentsCostReadersNothing: the version of a
// single-document read is that document's own, so a PUT, a DELETE and a
// batch that touch only other ids — on the one shard every id shares —
// leave doc1's cached responses and its clients' validators standing.
// Store-wide reads depend on all of it and miss after every write.
func TestWritesToOtherDocumentsCostReadersNothing(t *testing.T) {
	srv, store := cachedServer(t, 1)
	for _, id := range []string{"doc1", "other", "gone"} {
		if err := store.Put(id, revDoc(1)); err != nil {
			t.Fatal(err)
		}
	}
	etags := map[string]string{}
	warm := func(paths []string) {
		t.Helper()
		for _, path := range paths {
			resp, _ := get(t, srv.URL+path, nil)
			if got := resp.Header.Get("X-Yprov-Cache"); resp.StatusCode != 200 || got != "miss" {
				t.Fatalf("first GET %s: %d, cache = %q, want 200 miss", path, resp.StatusCode, got)
			}
			etags[path] = resp.Header.Get("ETag")
			resp, _ = get(t, srv.URL+path, nil)
			if got := resp.Header.Get("X-Yprov-Cache"); got != "hit" {
				t.Fatalf("second GET %s cache = %q, want hit", path, got)
			}
		}
	}
	warm(docReadPaths)
	warm(storeWideReadPaths)

	writes := []struct {
		name string
		do   func()
	}{
		{"PUT other", func() {
			if resp := putDoc(t, srv.URL, "other", "", nil); resp.StatusCode != http.StatusCreated {
				t.Fatalf("PUT other = %d", resp.StatusCode)
			}
		}},
		{"DELETE gone", func() { deleteDoc(t, srv.URL, "gone") }},
		{"batch b-0 b-1", func() {
			if status, body := postBatch(t, srv.URL, docLine(t, "b-0")+"\n"+docLine(t, "b-1")); status != http.StatusCreated {
				t.Fatalf("batch = %d %s", status, body)
			}
		}},
	}
	for _, w := range writes {
		w.do()
		for _, path := range docReadPaths {
			resp, _ := get(t, srv.URL+path, nil)
			if got := resp.Header.Get("X-Yprov-Cache"); got != "hit" || resp.Header.Get("ETag") != etags[path] {
				t.Errorf("after %s: GET %s cache = %q, ETag %s (was %s); want hit, unchanged",
					w.name, path, got, resp.Header.Get("ETag"), etags[path])
			}
			resp, _ = get(t, srv.URL+path, map[string]string{"If-None-Match": etags[path]})
			if resp.StatusCode != http.StatusNotModified {
				t.Errorf("after %s: conditional GET %s = %d, want 304", w.name, path, resp.StatusCode)
			}
		}
		for _, path := range storeWideReadPaths {
			resp, _ := get(t, srv.URL+path, nil)
			if got := resp.Header.Get("X-Yprov-Cache"); got != "miss" {
				t.Errorf("after %s: GET %s cache = %q, want miss", w.name, path, got)
			}
		}
	}
}

// TestRewritingADocumentRetiresItsValidators: replacing doc1 gives every
// read of it a miss and a new ETag, and deleting then re-creating it —
// with the very content it had — never brings an old ETag back.
func TestRewritingADocumentRetiresItsValidators(t *testing.T) {
	srv, store := cachedServer(t, 1)
	issued := map[string][]string{} // path -> every ETag handed out, oldest first
	// read expects a freshly computed 200 under an ETag never issued
	// for path before, and that no earlier ETag still validates.
	read := func(when, path string) {
		t.Helper()
		resp, _ := get(t, srv.URL+path, nil)
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != 200 || resp.Header.Get("X-Yprov-Cache") != "miss" || etag == "" {
			t.Fatalf("%s: GET %s = %d, cache %q, ETag %q; want a 200 miss with an ETag",
				when, path, resp.StatusCode, resp.Header.Get("X-Yprov-Cache"), etag)
		}
		for _, old := range issued[path] {
			if old == etag {
				t.Fatalf("%s: GET %s revived ETag %s", when, path, etag)
			}
			if resp, _ := get(t, srv.URL+path, map[string]string{"If-None-Match": old}); resp.StatusCode != 200 {
				t.Fatalf("%s: GET %s If-None-Match %s = %d, want 200", when, path, old, resp.StatusCode)
			}
		}
		issued[path] = append(issued[path], etag)
	}

	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}
	for _, path := range docReadPaths {
		read("first version", path)
	}
	if err := store.Put("doc1", revDoc(2)); err != nil {
		t.Fatal(err)
	}
	for _, path := range docReadPaths {
		read("after replace", path)
	}
	if err := storeDelete(store, "doc1"); err != nil {
		t.Fatal(err)
	}
	for _, path := range docReadPaths {
		last := issued[path][len(issued[path])-1]
		if resp, _ := get(t, srv.URL+path, map[string]string{"If-None-Match": last}); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("deleted: conditional GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	if err := store.Put("doc1", revDoc(2)); err != nil {
		t.Fatal(err)
	}
	for _, path := range docReadPaths {
		read("after delete and re-create", path)
	}
}

// TestBadLineageDirection: an unknown ?direction= is the client's
// mistake — 400 before any version or cache work, on both lineage
// endpoints — not a 404 out of a cache fill.
func TestBadLineageDirection(t *testing.T) {
	srv, store := cachedServer(t, 1)
	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/api/v0/documents/doc1/lineage?node=ex:e&direction=sideways", http.StatusBadRequest},
		{"/api/v0/lineage?node=ex:e&direction=sideways", http.StatusBadRequest},
		{"/api/v0/documents/nope/lineage?node=ex:e&direction=sideways", http.StatusBadRequest},
		{"/api/v0/documents/doc1/lineage?node=ex:e&direction=descendants", http.StatusOK},
		{"/api/v0/lineage?node=ex:e&direction=descendants", http.StatusOK},
		{"/api/v0/documents/doc1/lineage?node=ex:e", http.StatusOK},
		{"/api/v0/lineage?node=ex:e", http.StatusOK},
	} {
		resp, body := get(t, srv.URL+tc.path, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d %s, want %d", tc.path, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(string(body), `bad direction \"sideways\"`) {
			t.Errorf("GET %s: body %s does not name the bad direction", tc.path, body)
		}
	}
	_, body := get(t, srv.URL+"/api/v0/stats", nil)
	var st struct {
		ReadCache struct {
			FillErrors uint64 `json:"fill_errors"`
		} `json:"read_cache"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ReadCache.FillErrors != 0 {
		t.Errorf("bad directions reached %d cache fill(s)", st.ReadCache.FillErrors)
	}
}

// TestCachedReadsNeverGoBackwards is the cache's coherence check: with
// a writer continuously bumping a document's revision, concurrent
// cached readers must observe a non-decreasing revision sequence — a
// cached body served at version V can never show older state than an
// earlier read did — and a strong ETag must name one representation:
// every response that carries it has the same revision.
func TestCachedReadsNeverGoBackwards(t *testing.T) {
	srv, store := cachedServer(t, 2)
	if err := store.Put("doc1", revDoc(0)); err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/api/v0/documents/doc1"

	const readers, reads = 4, 150
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 1; ; i++ { // for as long as anyone reads
			select {
			case <-stop:
				return
			default:
			}
			if err := store.Put("doc1", revDoc(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var (
		etagMu  sync.Mutex
		etagRev = map[string]string{} // ETag -> the revision it went out with
	)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			last := ""
			for i := 0; i < reads; i++ {
				resp, body := get(t, url, nil)
				if resp.StatusCode != 200 {
					t.Errorf("GET = %d", resp.StatusCode)
					return
				}
				// The rev marker is fixed-width, so string order is
				// numeric order.
				rev := revMarker.FindString(string(body))
				if rev == "" {
					t.Errorf("no rev marker in body %q", body)
					return
				}
				if rev < last {
					t.Errorf("revision went backwards: %q after %q", rev, last)
					return
				}
				last = rev
				etag := resp.Header.Get("ETag")
				etagMu.Lock()
				first, seen := etagRev[etag]
				etagRev[etag] = rev
				etagMu.Unlock()
				if seen && first != rev {
					t.Errorf("ETag %s went out with revision %q and with %q", etag, first, rev)
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

// wholeAnswerServer serves a cached store holding n documents, each
// with one red provml:Thing entity ex:item generated by its own red
// activity, so every store-wide read has n or 2n rows.
func wholeAnswerServer(t *testing.T, shards, n int) (*httptest.Server, *provstore.Store) {
	t.Helper()
	srv, store := cachedServer(t, shards)
	for i := 0; i < n; i++ {
		d := prov.NewDocument()
		act := prov.QName(fmt.Sprintf("ex:act%03d", i))
		d.AddEntity("ex:item", prov.Attrs{"prov:type": prov.Str("provml:Thing"), "ex:color": prov.Str("red")})
		d.AddActivity(act, prov.Attrs{"ex:color": prov.Str("red")})
		d.WasGeneratedBy("ex:item", act, time.Time{})
		if err := store.Put(fmt.Sprintf("doc-%03d", i), d); err != nil {
			t.Fatal(err)
		}
	}
	return srv, store
}

// checkWholeAnswer asserts that GET path answers with exactly the JSON
// encoding of want, whose field holds rows rows, and that paging
// parameters and an NDJSON Accept header, which the service does not
// serve, change nothing about it. It returns that encoding.
func checkWholeAnswer(t *testing.T, srv *httptest.Server, path, field string, want map[string]interface{}, rows int) []byte {
	t.Helper()
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantBody = append(wantBody, '\n')
	var body map[string]json.RawMessage
	if err := json.Unmarshal(wantBody, &body); err != nil {
		t.Fatal(err)
	}
	var got []json.RawMessage
	if err := json.Unmarshal(body[field], &got); err != nil || len(got) != rows {
		t.Fatalf("the store answers %d %s (%v), want %d", len(got), field, err, rows)
	}
	for _, req := range []struct {
		query string
		hdr   map[string]string
	}{
		{"", nil},
		{"limit=7&cursor=" + url.QueryEscape("ZG9jLTAwNQ"), nil},
		{"", map[string]string{"Accept": "application/x-ndjson"}},
	} {
		resp, got := get(t, srv.URL+path+req.query, req.hdr)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s%s %v = %d %s", path, req.query, req.hdr, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if string(got) != string(wantBody) {
			t.Fatalf("GET %s%s %v:\n got %s\nwant %s", path, req.query, req.hdr, got, wantBody)
		}
	}
	return wantBody
}

// TestListWholeAnswer: the listing answers with every id in one JSON
// body — the store's own sorted order, the same bytes for every shard
// layout.
func TestListWholeAnswer(t *testing.T) {
	const n = 23
	var atOneShard []byte
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, store := wholeAnswerServer(t, shards, n)
			got := checkWholeAnswer(t, srv, "/api/v0/documents?", "documents",
				map[string]interface{}{"documents": store.List()}, n)
			if shards == 1 {
				atOneShard = got
			} else if string(got) != string(atOneShard) {
				t.Fatalf("%d shards answer\n%s\n1 shard answers\n%s", shards, got, atOneShard)
			}
		})
	}
}

// TestSearchWholeAnswer: type search, attribute search and
// cross-document lineage each answer with the whole result in one JSON
// body — the store's own answer, in its order, the same bytes for every
// shard layout.
func TestSearchWholeAnswer(t *testing.T) {
	const n = 23
	atOneShard := map[string][]byte{}
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, store := wholeAnswerServer(t, shards, n)
			lineage, err := store.CrossDocLineage("ex:item", provstore.Ancestors, maxTraversalDepth)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				name, path, field string
				want              map[string]interface{}
				rows              int
			}{
				{"type", "/api/v0/search?type=provml:Thing&", "results",
					map[string]interface{}{"results": store.FindByType("provml:Thing")}, n},
				{"attr", "/api/v0/search?key=ex:color&value=red&", "results",
					map[string]interface{}{"results": store.FindByAttr("ex:color", "red")}, 2 * n},
				{"lineage", "/api/v0/lineage?node=ex:item&direction=ancestors&", "nodes",
					map[string]interface{}{"node": "ex:item", "direction": provstore.Ancestors, "depth": maxTraversalDepth, "nodes": lineage}, n},
			} {
				t.Run(tc.name, func(t *testing.T) {
					got := checkWholeAnswer(t, srv, tc.path, tc.field, tc.want, tc.rows)
					if shards == 1 {
						atOneShard[tc.name] = got
					} else if string(got) != string(atOneShard[tc.name]) {
						t.Fatalf("%d shards answer\n%s\n1 shard answers\n%s", shards, got, atOneShard[tc.name])
					}
				})
			}
		})
	}
}

// TestReadKeysNeverCollide: two different reads at the same version
// never share a cache entry, whatever bytes their ids, qualified names
// and query values hold. Each pair below once mapped to one key (the
// parts were joined with a 0x1f byte that a part may carry itself), so
// the second read was answered from the first one's entry.
func TestReadKeysNeverCollide(t *testing.T) {
	named := prov.NewDocument()
	named.AddEntity("ex:e", prov.Attrs{"provml:name": prov.Str("x\x1fy")})
	for _, tc := range []struct {
		name          string
		ops           []provstore.Op // written in one mutation: one version
		first, second string
	}{
		{"search", []provstore.Op{putOp("d", named)},
			"/api/v0/search?key=provml:name%1Fx&value=y",
			"/api/v0/search?key=provml:name&value=x%1Fy"},
		{"lineage", []provstore.Op{putOp("x\x1fy", revDoc(1)), putOp("x", revDoc(1))},
			"/api/v0/documents/x%1Fy/lineage?node=ex:e",
			"/api/v0/documents/x/lineage?node=y%1Fex:e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, store := cachedServer(t, 1)
			if err := store.Apply(context.Background(), tc.ops); err != nil {
				t.Fatal(err)
			}
			uncached := httptest.NewServer(New(store))
			defer uncached.Close()
			if resp, _ := get(t, srv.URL+tc.first, nil); resp.Header.Get("X-Yprov-Cache") != "miss" {
				t.Fatalf("GET %s: cache %q, want miss", tc.first, resp.Header.Get("X-Yprov-Cache"))
			}
			want, wantBody := get(t, uncached.URL+tc.second, nil)
			got, gotBody := get(t, srv.URL+tc.second, nil)
			if cache := got.Header.Get("X-Yprov-Cache"); cache == "hit" || got.StatusCode != want.StatusCode || string(gotBody) != string(wantBody) {
				t.Fatalf("GET %s after GET %s: %d (cache %q) %s\nuncached it answers %d %s",
					tc.second, tc.first, got.StatusCode, cache, gotBody, want.StatusCode, wantBody)
			}
		})
	}
}

// TestDepthAndHopsClamp: explicit traversal depths above the server
// cap (1024) are rejected with a 400 naming the cap; depth=0 (historically
// "unbounded") silently clamps; subgraph hops=0 still means "just the
// node".
func TestDepthAndHopsClamp(t *testing.T) {
	srv, store := cachedServer(t, 1)
	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, srv.URL+"/api/v0/documents/doc1/lineage?node=ex:e&depth=1025", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maximum of 1024") {
		t.Fatalf("over-cap depth: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, srv.URL+"/api/v0/documents/doc1/lineage?node=ex:e&depth=0", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("depth=0 (clamped) = %d, want 200", resp.StatusCode)
	}
	resp, body = get(t, srv.URL+"/api/v0/documents/doc1/subgraph?node=ex:e&hops=1025", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maximum of 1024") {
		t.Fatalf("over-cap hops: %d %s", resp.StatusCode, body)
	}
	// hops=0 is a valid request for the bare node, not "unbounded".
	resp, body = get(t, srv.URL+"/api/v0/documents/doc1/subgraph?node=ex:e&hops=0", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("hops=0 = %d, want 200", resp.StatusCode)
	}
	sub, err := prov.ParseJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sub.EntityIDs()) + len(sub.ActivityIDs()) + len(sub.AgentIDs()); n != 1 {
		t.Fatalf("hops=0 subgraph has %d nodes, want just ex:e", n)
	}
	resp, body = get(t, srv.URL+"/api/v0/lineage?node=ex:e&depth=1025", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maximum of 1024") {
		t.Fatalf("cross-lineage over-cap depth: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, srv.URL+"/api/v0/documents/doc1/lineage?node=ex:e&depth=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed depth = %d, want 400", resp.StatusCode)
	}
}

// TestWriteJSONEncodeError: a body that cannot be marshaled must yield
// a real 500 (headers not yet written, so the status is honest) and
// bump the encode-error counter — not a 200 with a truncated body.
func TestWriteJSONEncodeError(t *testing.T) {
	before := encodeErrors.Value()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]interface{}{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("500 body not an error envelope: %q (%v)", rec.Body.String(), err)
	}
	if encodeErrors.Value() != before+1 {
		t.Fatalf("encodeErrors = %d, want %d", encodeErrors.Value(), before+1)
	}
}

// TestStatsExposesReadCache: /api/v0/stats carries the read_cache
// block when the cache is on, and omits it when off.
func TestStatsExposesReadCache(t *testing.T) {
	srv, store := cachedServer(t, 1)
	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}
	get(t, srv.URL+"/api/v0/documents/doc1", nil) // one miss
	get(t, srv.URL+"/api/v0/documents/doc1", nil) // one hit
	_, body := get(t, srv.URL+"/api/v0/stats", nil)
	var st struct {
		ReadCache *struct {
			Hits     uint64  `json:"hits"`
			Misses   uint64  `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"read_cache"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ReadCache == nil || st.ReadCache.Hits == 0 || st.ReadCache.Misses == 0 {
		t.Fatalf("read_cache block missing or empty: %s", body)
	}

	plain := httptest.NewServer(New(provstore.New()))
	defer plain.Close()
	_, body = get(t, plain.URL+"/api/v0/stats", nil)
	if strings.Contains(string(body), "read_cache") {
		t.Fatalf("cache-less stats leaked a read_cache block: %s", body)
	}
}

// TestMetricsExposeReadCache: the Prometheus endpoint serves the cache
// series.
func TestMetricsExposeReadCache(t *testing.T) {
	srv, store := cachedServer(t, 1)
	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}
	get(t, srv.URL+"/api/v0/documents/doc1", nil)
	get(t, srv.URL+"/api/v0/documents/doc1", nil)
	_, body := get(t, srv.URL+"/metrics", nil)
	for _, series := range []string{
		"yprov_readcache_hits_total",
		"yprov_readcache_misses_total",
		"yprov_readcache_hit_ratio",
		"yprov_response_encode_errors_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("metrics missing %s", series)
		}
	}
}

// putOp is the store op putting doc under id, encoded as the library's
// Put encodes it.
func putOp(id string, doc *prov.Document) provstore.Op {
	return provstore.Op{ID: id, Blob: prov.AppendBinary(nil, doc)}
}
