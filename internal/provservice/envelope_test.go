package provservice

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonscan"
	"repro/internal/prov"
	"repro/internal/provstore"
)

// scanBatchLineCases pin how a request line is read: like the
// encoding/json struct decode it replaced, except that the doc comes
// back as a span of the line. They also seed FuzzScanBatchLine.
var scanBatchLineCases = []struct {
	name, line string
	id, doc    string // doc "" = no doc member
	errSubstr  string
}{
	{name: "id then doc", line: `{"id":"a","doc":{"entity":{}}}`, id: "a", doc: `{"entity":{}}`},
	{name: "doc then id", line: `{"doc":{"entity":{}},"id":"a"}`, id: "a", doc: `{"entity":{}}`},
	{name: "whitespace stays outside the span", line: ` { "id" : "a" , "doc" :  { "entity" : { } }  } `, id: "a", doc: `{ "entity" : { } }`},
	{name: "unknown members skipped", line: `{"x":[1,{"id":"no"}],"id":"a","y":null,"doc":{},"z":"doc"}`, id: "a", doc: `{}`},
	{name: "duplicate id: last wins", line: `{"id":"a","id":"b","doc":{}}`, id: "b", doc: `{}`},
	{name: "duplicate doc: last wins", line: `{"id":"a","doc":{"entity":{}},"doc":{"agent":{}}}`, id: "a", doc: `{"agent":{}}`},
	{name: "member names fold case", line: `{"ID":"a","Doc":{}}`, id: "a", doc: `{}`},
	{name: "member names fold case, mixed", line: `{"iD":"a","dOC":{},"Id":"b"}`, id: "b", doc: `{}`},
	{name: "near-miss names are unknown", line: `{"id ":"x","ids":"y","do":{},"docs":{}}`},
	{name: "escaped names and id", line: `{"id":"a\né","doc":{}}`, id: "a\né", doc: `{}`},
	{name: "missing id", line: `{"doc":{}}`, doc: `{}`},
	{name: "missing doc", line: `{"id":"a"}`, id: "a"},
	{name: "null id leaves the id alone", line: `{"id":"a","id":null,"doc":{}}`, id: "a", doc: `{}`},
	{name: "null line has neither member", line: `null`},
	{name: "null doc is a span for the decoder to reject", line: `{"id":"a","doc":null}`, id: "a", doc: `null`},
	{name: "scalar doc likewise", line: `{"id":"a","doc":7}`, id: "a", doc: `7`},
	{name: "empty object", line: `{}`},
	{name: "non-string id", line: `{"id":7,"doc":{}}`, errSubstr: `"id" is not a string`},
	{name: "non-string id, then a string one", line: `{"id":{"x":1},"id":"a","doc":{}}`, errSubstr: `"id" is not a string`},
	{name: "syntax error wins over a bad id", line: `{"id":7,"doc":{]}`, errSubstr: "invalid character"},
	{name: "not an object", line: `[{"id":"a"}]`, errSubstr: "invalid character"},
	{name: "string line", line: `"id"`, errSubstr: "invalid character"},
	{name: "trailing garbage", line: `{"id":"a","doc":{}} x`, errSubstr: "after top-level value"},
	{name: "second object", line: `{"id":"a","doc":{}}{"id":"b"}`, errSubstr: "after top-level value"},
	{name: "truncated", line: `{"id":"a","doc":{"entity":`, errSubstr: "unexpected end"},
	{name: "bad doc syntax", line: `{"id":"a","doc":{not json}}`, errSubstr: "invalid character"},
}

// batchLineRef is the encoding/json decode scanBatchLine replaced.
type batchLineRef struct {
	ID  string          `json:"id"`
	Doc json.RawMessage `json:"doc"`
}

// isSpan reports whether sub is a sub-slice of line, not a copy of it.
func isSpan(line, sub []byte) bool {
	for i := 0; i+len(sub) <= len(line); i++ {
		if &line[i] == &sub[0] {
			return true
		}
	}
	return false
}

func TestScanBatchLine(t *testing.T) {
	for _, tc := range scanBatchLineCases {
		t.Run(tc.name, func(t *testing.T) {
			line := []byte(tc.line)
			id, doc, err := scanBatchLine(line)
			if tc.errSubstr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errSubstr) {
					t.Fatalf("error %v, want one containing %q", err, tc.errSubstr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if id != tc.id || string(doc) != tc.doc || (doc == nil) != (tc.doc == "") {
				t.Fatalf("id %q doc %q, want id %q doc %q", id, doc, tc.id, tc.doc)
			}
			if doc != nil && !isSpan(line, doc) {
				t.Fatal("doc is a copy, not a span of the line")
			}
			// What the struct decode made of the same line.
			var ref batchLineRef
			if err := json.Unmarshal(line, &ref); err != nil {
				t.Fatalf("encoding/json rejects the line: %v", err)
			}
			if ref.ID != id || string(ref.Doc) != string(doc) {
				t.Fatalf("encoding/json read id %q doc %q, the scan id %q doc %q", ref.ID, ref.Doc, id, doc)
			}
		})
	}
}

// FuzzScanBatchLine holds scanBatchLine to the encoding/json struct
// decode on every line: both accept the same lines, and on an accepted
// one read the same id and the same doc bytes, the scan's doc being a
// span of the line.
func FuzzScanBatchLine(f *testing.F) {
	for _, tc := range scanBatchLineCases {
		f.Add([]byte(tc.line))
	}
	// Edges the table does not reach: invalid UTF-8 and a lone surrogate
	// in the id, an escaped member name, a non-string id after a string
	// one, and a doc nested to just under and just over the depth cap.
	for _, s := range []string{"{\"id\":\"\xff\",\"doc\":{}}", `{"id":"\ud800","doc":{}}`,
		`{"\u0069d":"a","doc":{}}`, `{"id":"a","doc":{},"id":7}`} {
		f.Add([]byte(s))
	}
	for _, n := range []int{jsonscan.MaxDepth - 1, jsonscan.MaxDepth} {
		f.Add([]byte(`{"id":"a","doc":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		id, doc, err := scanBatchLine(line)
		var ref batchLineRef
		refErr := json.Unmarshal(line, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("scan error %v, encoding/json error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if id != ref.ID || string(doc) != string(ref.Doc) || (doc == nil) != (ref.Doc == nil) {
			t.Fatalf("scan read id %q doc %q, encoding/json id %q doc %q", id, doc, ref.ID, ref.Doc)
		}
		if doc != nil && !isSpan(line, doc) {
			t.Fatal("doc is a copy, not a span of the line")
		}
	})
}

// TestBatchLineNumbers: blank lines, rejected envelopes and rejected
// documents keep the 1-based physical line numbers they always had.
func TestBatchLineNumbers(t *testing.T) {
	srv, store := newBatchServer(t, nil)
	body := strings.Join([]string{
		docLine(t, "ok-1"),         // 1
		"",                         // 2
		`{"id":7,"doc":{}}`,        // 3: envelope
		"   ",                      // 4
		`{"ID":"x","DOC":null}`,    // 5: document
		`{"id":"y","doc":{}} tail`, // 6: envelope
		docLine(t, "ok-1"),         // 7: duplicate
		`{"doc":{}}`,               // 8: no id
		`{"id":"z"}`,               // 9: no doc
		docLine(t, "ok-2"),         // 10
	}, "\r\n")
	status, payload := postBatch(t, srv.URL, body)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, body %s", status, payload)
	}
	var rej struct {
		Lines []batchLineError `json:"line_errors"`
	}
	if err := json.Unmarshal(payload, &rej); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		line          int
		id, errSubstr string
	}{
		{3, "", "invalid JSON"}, {5, "x", "invalid PROV-JSON"}, {6, "", "invalid JSON"},
		{7, "ok-1", "duplicate id"}, {8, "", "missing document id"}, {9, "z", "missing doc"},
	}
	if len(rej.Lines) != len(want) {
		t.Fatalf("%d line errors, want %d: %s", len(rej.Lines), len(want), payload)
	}
	for i, w := range want {
		if g := rej.Lines[i]; g.Line != w.line || g.ID != w.id || !strings.Contains(g.Error, w.errSubstr) {
			t.Errorf("line error %d = %+v, want line %d id %q containing %q", i, g, w.line, w.id, w.errSubstr)
		}
	}
	if store.Count() != 0 {
		t.Fatalf("rejected batch stored %d documents", store.Count())
	}
}

// TestBatchNullDocRejected: a line whose doc is null used to be
// acknowledged with 201 and journaled as the blob "null", which no
// recovery or follower can decode — the data directory was lost. It is
// a per-line 422 now, nothing is journaled, and the directory reopens.
func TestBatchNullDocRejected(t *testing.T) {
	dir := t.TempDir()
	open := func() *provstore.Store {
		t.Helper()
		store, err := provstore.Open(dir, provstore.Durability{Fsync: true, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return store
	}
	store := open()
	srv := httptest.NewServer(New(store))
	defer srv.Close()

	if status, payload := postBatch(t, srv.URL, docLine(t, "good")+"\n"); status != http.StatusCreated {
		t.Fatalf("valid batch: status %d, body %s", status, payload)
	}
	status, payload := postBatch(t, srv.URL, docLine(t, "also-good")+"\n"+`{"id":"x","doc":null}`+"\n")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (body %s)", status, payload)
	}
	var rej struct {
		Lines []batchLineError `json:"line_errors"`
	}
	if err := json.Unmarshal(payload, &rej); err != nil {
		t.Fatal(err)
	}
	if len(rej.Lines) != 1 || rej.Lines[0].Line != 2 || rej.Lines[0].ID != "x" || !strings.Contains(rej.Lines[0].Error, "invalid PROV-JSON") {
		t.Fatalf("line errors %+v, want one invalid PROV-JSON error for line 2, id x", rej.Lines)
	}
	if got := store.List(); fmt.Sprint(got) != "[good]" {
		t.Fatalf("store holds %v, want [good]", got)
	}
	seq := store.AppliedSeq()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := open()
	defer reopened.Close()
	if got := reopened.List(); fmt.Sprint(got) != "[good]" || reopened.AppliedSeq() != seq {
		t.Fatalf("reopened store holds %v at seq %d, want [good] at seq %d", got, reopened.AppliedSeq(), seq)
	}
}

// TestPutNonObjectBodyRejected: a PUT whose body is null (or any other
// JSON value that is no object) used to store an empty document.
func TestPutNonObjectBodyRejected(t *testing.T) {
	srv, store := newBatchServer(t, nil)
	for _, body := range []string{`null`, ` null `, `[]`, `"doc"`, `7`, ``} {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/api/v0/documents/d", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(out.Error, "invalid PROV-JSON") {
			t.Errorf("PUT %q: status %d, error %q (%v), want 400 invalid PROV-JSON", body, resp.StatusCode, out.Error, err)
		}
	}
	if store.Count() != 0 {
		t.Fatalf("store holds %v", store.List())
	}
}

// chainLine is one batch line carrying a chain document of the shape
// and size the service ingests in bulk; its attribute values name id.
func chainLine(t *testing.T, id string, depth int) []byte {
	t.Helper()
	d := prov.NewDocument()
	for i := 0; i < depth; i++ {
		e, a := prov.QName(fmt.Sprintf("ex:e%d", i)), prov.QName(fmt.Sprintf("ex:a%d", i))
		d.AddEntity(e, prov.Attrs{"ex:tag": prov.Str(fmt.Sprintf("%s/%016x", id, i))})
		d.AddActivity(a, nil)
		d.WasGeneratedBy(e, a, time.Time{})
		if i > 0 {
			d.Used(a, prov.QName(fmt.Sprintf("ex:e%d", i-1)), time.Time{})
		}
	}
	raw, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"id":%q,"doc":%s}`, id, raw))
}

// keepOps is a store whose Apply only remembers what it was handed.
type keepOps struct {
	*provstore.Store
	ops []provstore.Op
}

func (k *keepOps) Apply(_ context.Context, ops []provstore.Op) error {
	k.ops = ops
	return nil
}

// allocatedBytes is the heap allocated by one call of fn.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBatchRequestCopiesNoDocumentBytes: once the line reader pool is
// warm, a 32-line request allocates no line storage at all — the lines
// land in a recycled buffer, which the doc spans and Op.Raw alias — and
// little else on top of what decoding and validating the documents
// costs.
func TestBatchRequestCopiesNoDocumentBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const lines = 32
	var body bytes.Buffer
	var docs [][]byte
	for i := 0; i < lines; i++ {
		line := chainLine(t, fmt.Sprintf("doc-%02d", i), 33)
		_, doc, err := scanBatchLine(line)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
		body.Write(line)
		body.WriteByte('\n')
	}
	decode := allocatedBytes(func() {
		for _, raw := range docs {
			doc, err := prov.ParseJSON(raw)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := doc.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})

	store := &keepOps{Store: provstore.New()}
	svc := New(store)
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/api/v0/documents:batch", bytes.NewReader(body.Bytes()))
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // warm up pools and lazily built state
	request := allocatedBytes(post)

	if len(store.ops) != lines {
		t.Fatalf("store saw %d ops, want %d", len(store.ops), lines)
	}
	for i, op := range store.ops {
		if !bytes.Equal(op.Raw, docs[i]) {
			t.Fatalf("op %d: Raw is not the line's doc bytes", i)
		}
	}
	overhead := int64(request) - int64(decode)
	limit := int64(body.Len()) / 8
	t.Logf("body %d B: request allocates %d B, decoding its documents %d B, the rest %d B (limit %d)", body.Len(), request, decode, overhead, limit)
	if overhead > limit && !raceEnabled {
		t.Errorf("reading and scanning %d B of lines allocates %d B beyond the decode: line storage is not recycled", body.Len(), overhead)
	}
}
