package provservice

import (
	"bufio"
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
	if err := store.Delete("doc1"); err != nil {
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

// TestListPaginationEquivalence: for every shard layout, walking the
// cursor pages and streaming NDJSON both reproduce the unpaginated
// listing exactly.
func TestListPaginationEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, store := cachedServer(t, shards)
			const n = 57
			for i := 0; i < n; i++ {
				if err := store.Put(fmt.Sprintf("doc-%03d", i), revDoc(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Unpaginated baseline.
			_, body := get(t, srv.URL+"/api/v0/documents", nil)
			var full struct {
				Documents  []string `json:"documents"`
				NextCursor string   `json:"next_cursor"`
			}
			if err := json.Unmarshal(body, &full); err != nil {
				t.Fatal(err)
			}
			if len(full.Documents) != n || full.NextCursor != "" {
				t.Fatalf("unpaginated: %d ids, cursor %q", len(full.Documents), full.NextCursor)
			}
			// Cursor crawl at an awkward page size.
			var paged []string
			cursor := ""
			for {
				u := srv.URL + "/api/v0/documents?limit=10"
				if cursor != "" {
					u += "&cursor=" + cursor
				}
				resp, body := get(t, u, nil)
				if resp.StatusCode != 200 {
					t.Fatalf("page GET = %d", resp.StatusCode)
				}
				var page struct {
					Documents  []string `json:"documents"`
					NextCursor string   `json:"next_cursor"`
				}
				if err := json.Unmarshal(body, &page); err != nil {
					t.Fatal(err)
				}
				paged = append(paged, page.Documents...)
				if page.NextCursor == "" {
					break
				}
				cursor = page.NextCursor
			}
			if fmt.Sprint(paged) != fmt.Sprint(full.Documents) {
				t.Fatalf("cursor crawl diverged:\n paged %v\n  full %v", paged, full.Documents)
			}
			// NDJSON stream.
			resp, body := get(t, srv.URL+"/api/v0/documents", map[string]string{"Accept": "application/x-ndjson"})
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("stream Content-Type = %q", ct)
			}
			var streamed []string
			sc := bufio.NewScanner(strings.NewReader(string(body)))
			for sc.Scan() {
				var id string
				if err := json.Unmarshal(sc.Bytes(), &id); err != nil {
					t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
				}
				streamed = append(streamed, id)
			}
			if fmt.Sprint(streamed) != fmt.Sprint(full.Documents) {
				t.Fatalf("NDJSON stream diverged:\n stream %v\n   full %v", streamed, full.Documents)
			}
		})
	}
}

// TestSearchPaginationEquivalence: cursor pages over each store-wide
// query — search by type, search by attribute, store-wide lineage one
// row per page — union to the unpaginated result, in order.
func TestSearchPaginationEquivalence(t *testing.T) {
	srv, store := cachedServer(t, 4)
	const n = 23
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
	for _, tc := range []struct {
		name, path, field string
		limit, want       int
	}{
		{"type", "/api/v0/search?type=provml:Thing", "results", 7, n},
		{"attr", "/api/v0/search?key=ex:color&value=red", "results", 7, 2 * n},
		{"lineage", "/api/v0/lineage?node=ex:item&direction=ancestors", "nodes", 1, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fetch := func(u string) (rows []json.RawMessage, next string) {
				t.Helper()
				resp, body := get(t, u, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s = %d: %s", u, resp.StatusCode, body)
				}
				var page map[string]json.RawMessage
				if err := json.Unmarshal(body, &page); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(page[tc.field], &rows); err != nil {
					t.Fatalf("%s: %v", tc.field, err)
				}
				if c, ok := page["next_cursor"]; ok {
					if err := json.Unmarshal(c, &next); err != nil {
						t.Fatal(err)
					}
				}
				return rows, next
			}
			full, next := fetch(srv.URL + tc.path)
			if len(full) != tc.want || next != "" {
				t.Fatalf("unpaginated: %d rows, cursor %q; want %d rows, no cursor", len(full), next, tc.want)
			}
			var paged []json.RawMessage
			pages := 0
			for cursor := ""; ; {
				u := fmt.Sprintf("%s%s&limit=%d", srv.URL, tc.path, tc.limit)
				if cursor != "" {
					u += "&cursor=" + url.QueryEscape(cursor)
				}
				rows, next := fetch(u)
				if len(rows) > tc.limit {
					t.Fatalf("page of %d rows exceeds limit %d", len(rows), tc.limit)
				}
				paged = append(paged, rows...)
				if pages++; next == "" {
					break
				}
				cursor = next
			}
			if want := (tc.want + tc.limit - 1) / tc.limit; pages != want {
				t.Errorf("%d pages, want %d", pages, want)
			}
			if fmt.Sprintf("%s", paged) != fmt.Sprintf("%s", full) {
				t.Fatalf("crawl diverged:\n paged %s\n  full %s", paged, full)
			}
		})
	}
}

// TestDepthAndHopsClamp: explicit traversal depths above the server
// cap are rejected with a 400 naming the cap; depth=0 (historically
// "unbounded") silently clamps; subgraph hops=0 still means "just the
// node".
func TestDepthAndHopsClamp(t *testing.T) {
	srv, store := cachedServer(t, 1, WithMaxTraversalDepth(4))
	if err := store.Put("doc1", revDoc(1)); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, srv.URL+"/api/v0/documents/doc1/lineage?node=ex:e&depth=5", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maximum of 4") {
		t.Fatalf("over-cap depth: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, srv.URL+"/api/v0/documents/doc1/lineage?node=ex:e&depth=0", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("depth=0 (clamped) = %d, want 200", resp.StatusCode)
	}
	resp, body = get(t, srv.URL+"/api/v0/documents/doc1/subgraph?node=ex:e&hops=9", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maximum of 4") {
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
	resp, body = get(t, srv.URL+"/api/v0/lineage?node=ex:e&depth=5", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maximum of 4") {
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
