package provservice

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/prov"
	"repro/internal/provstore"
	"repro/internal/wal"
)

// newBatchServer spins up a service over a fresh store with test
// overrides applied before it serves.
func newBatchServer(t *testing.T, cfg func(*Service), opts ...Option) (*httptest.Server, *provstore.Store) {
	t.Helper()
	store := provstore.New()
	svc := New(store, opts...)
	if cfg != nil {
		cfg(svc)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv, store
}

func docLine(t *testing.T, id string) string {
	t.Helper()
	raw, err := testDoc().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(struct {
		ID  string          `json:"id"`
		Doc json.RawMessage `json:"doc"`
	}{ID: id, Doc: raw})
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

func postBatch(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/api/v0/documents:batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

func TestBatchEndpointStoresAtomically(t *testing.T) {
	srv, store := newBatchServer(t, nil)
	body := docLine(t, "b-0") + "\n\n  \n" + docLine(t, "b-1") + "\r\n" + docLine(t, "b-2") // blank + CRLF framing
	status, payload := postBatch(t, srv.URL, body)
	if status != http.StatusCreated {
		t.Fatalf("status = %d, body %s", status, payload)
	}
	var out struct {
		Created int      `json:"created"`
		IDs     []string `json:"ids"`
	}
	if err := json.Unmarshal(payload, &out); err != nil || out.Created != 3 || len(out.IDs) != 3 {
		t.Fatalf("response %s (err %v)", payload, err)
	}
	if store.Count() != 3 {
		t.Fatalf("store has %d docs, want 3", store.Count())
	}
}

// TestBatchNDJSONParsing is the table-driven parsing satellite: blank
// lines, oversized lines, duplicate ids, malformed JSON, missing
// fields — every rejection is all-or-nothing with per-line errors.
func TestBatchNDJSONParsing(t *testing.T) {
	valid := docLine(t, "ok")
	cases := []struct {
		name      string
		body      string
		status    int
		errLines  []int  // expected "line" values in line_errors
		errSubstr string // expected fragment of the first line error
	}{
		{"only blank lines is an empty batch", "\n\n   \n", http.StatusBadRequest, nil, ""},
		{"empty body", "", http.StatusBadRequest, nil, ""},
		{"no trailing newline accepted", valid, http.StatusCreated, nil, ""},
		{"bad json", valid + "\n{not json}\n", http.StatusUnprocessableEntity, []int{2}, "invalid JSON"},
		{"missing id", `{"doc":{}}` + "\n", http.StatusUnprocessableEntity, []int{1}, "missing document id"},
		{"missing doc", `{"id":"x"}` + "\n", http.StatusUnprocessableEntity, []int{1}, "missing doc"},
		{"duplicate ids in one batch", valid + "\n" + valid + "\n", http.StatusUnprocessableEntity, []int{2}, "duplicate id"},
		{"invalid prov document", `{"id":"x","doc":{"wasGeneratedBy":{"g":{"prov:entity":"ex:ghost","prov:activity":"ex:run"}}}}` + "\n",
			http.StatusUnprocessableEntity, []int{1}, "invalid PROV-JSON"},
		{"multiple bad lines all reported", "{bad}\n" + valid + "\n{worse}\n", http.StatusUnprocessableEntity, []int{1, 3}, "invalid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, store := newBatchServer(t, nil)
			status, payload := postBatch(t, srv.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, payload)
			}
			if status != http.StatusCreated && store.Count() != 0 {
				t.Fatalf("rejected batch stored %d docs", store.Count())
			}
			if len(tc.errLines) == 0 {
				return
			}
			var rej struct {
				Lines []struct {
					Line  int    `json:"line"`
					Error string `json:"error"`
				} `json:"line_errors"`
			}
			if err := json.Unmarshal(payload, &rej); err != nil {
				t.Fatalf("unmarshal %s: %v", payload, err)
			}
			var got []int
			for _, l := range rej.Lines {
				got = append(got, l.Line)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.errLines) {
				t.Fatalf("error lines %v, want %v (body %s)", got, tc.errLines, payload)
			}
			if !strings.Contains(rej.Lines[0].Error, tc.errSubstr) {
				t.Fatalf("first line error %q does not contain %q", rej.Lines[0].Error, tc.errSubstr)
			}
		})
	}
}

func TestBatchOversizedLine(t *testing.T) {
	cap := len(docLine(t, "small")) + 64 // valid lines fit, the padded one does not
	srv, store := newBatchServer(t, func(s *Service) { s.MaxLineBytes = cap })
	big := `{"id":"big","doc":{"entity":{"ex:e":{"a":"` + strings.Repeat("x", 4*cap) + `"}}}}`
	status, payload := postBatch(t, srv.URL, docLine(t, "small")+"\n"+big+"\n"+docLine(t, "after")+"\n")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, body %s", status, payload)
	}
	// The oversized line is reported with its line number, and parsing
	// resumed cleanly on the line after it.
	if !strings.Contains(string(payload), `"line":2`) || !strings.Contains(string(payload), fmt.Sprintf("exceeds %d bytes", cap)) {
		t.Fatalf("body %s", payload)
	}
	if strings.Contains(string(payload), `"line":3`) {
		t.Fatalf("valid line after the oversized one was rejected: %s", payload)
	}
	if store.Count() != 0 {
		t.Fatal("rejected batch stored documents")
	}
}

// TestBatchLineErrorsCapped: a stream of invalid lines cannot amplify
// into unbounded error entries — parsing aborts after the cap.
func TestBatchLineErrorsCapped(t *testing.T) {
	srv, store := newBatchServer(t, nil)
	status, payload := postBatch(t, srv.URL, strings.Repeat("{bad}\n", 5000))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d", status)
	}
	var rej struct {
		Lines []batchLineError `json:"line_errors"`
	}
	if err := json.Unmarshal(payload, &rej); err != nil {
		t.Fatal(err)
	}
	if len(rej.Lines) != maxBatchLineErrors+1 { // cap + the abort marker
		t.Fatalf("kept %d line errors, want %d", len(rej.Lines), maxBatchLineErrors+1)
	}
	if !strings.Contains(rej.Lines[maxBatchLineErrors].Error, "aborting after") {
		t.Fatalf("missing abort marker: %+v", rej.Lines[maxBatchLineErrors])
	}
	if store.Count() != 0 {
		t.Fatal("rejected batch stored documents")
	}
}

// TestReadLimitedLineBoundary: the per-line cap counts content bytes
// only — a line of exactly max bytes passes, with or without CRLF, and
// max+1 is truncated.
func TestReadLimitedLineBoundary(t *testing.T) {
	const max = 8
	for _, tc := range []struct {
		name      string
		body      string
		want      string
		truncated bool
	}{
		{"exactly max with LF", "12345678\nrest", "12345678", false},
		{"exactly max with CRLF", "12345678\r\nrest", "12345678", false},
		{"exactly max at EOF", "12345678", "12345678", false},
		{"max+1", "123456789\nrest", "", true},
		{"max+1 at EOF", "123456789", "", true},
		{"under max", "123\n", "123", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lr := &lineReader{br: bufio.NewReaderSize(strings.NewReader(tc.body), 16)}
			line, truncated, err := lr.next(max)
			if err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(line) != tc.want || truncated != tc.truncated {
				t.Fatalf("next(%q) = (%q, %v), want (%q, %v)",
					tc.body, line, truncated, tc.want, tc.truncated)
			}
		})
	}
}

// TestLineReaderSequence: the lines of one body come back in order —
// CRLF and LF framing, blank lines, an over-long line consumed and
// reported with the line after it still read, a final line without a
// terminator — each read into the reader's one buffer, which the next
// line reuses.
func TestLineReaderSequence(t *testing.T) {
	const max = 24
	long := strings.Repeat("x", 3*max)
	body := "first\r\n\n" + long + "\nexactly-twenty-four-byte\r\n  \n" + strings.Repeat("y", max) + "\nlast"
	want := []struct {
		line      string
		truncated bool
	}{
		{"first", false}, {"", false}, {"", true}, {"exactly-twenty-four-byte", false}, {"  ", false},
		{strings.Repeat("y", max), false}, {"last", false},
	}
	lr := &lineReader{br: bufio.NewReaderSize(strings.NewReader(body), 16)}
	for i := 0; ; i++ {
		line, truncated, err := lr.next(max)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if i >= len(want) || string(line) != want[i].line || truncated != want[i].truncated {
			t.Fatalf("line %d = (%q, %v), want %+v", i+1, line, truncated, want[min(i, len(want)-1)])
		}
		if len(line) > 0 && &line[0] != &lr.buf[0] {
			t.Fatalf("line %d was not read to the start of the reader's buffer", i+1)
		}
		if err == io.EOF {
			break
		}
	}
}

func TestBatchLimitsAndMiddleware(t *testing.T) {
	// Total body cap -> 413 through the shared body-limit middleware.
	srv, _ := newBatchServer(t, func(s *Service) { s.MaxBodyBytes = 128 })
	status, _ := postBatch(t, srv.URL, docLine(t, "a")+"\n"+docLine(t, "b")+"\n")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("body-cap status = %d, want 413", status)
	}
	// Document-count cap.
	srv2, store2 := newBatchServer(t, func(s *Service) { s.MaxBatchDocs = 2 })
	status, _ = postBatch(t, srv2.URL, docLine(t, "a")+"\n"+docLine(t, "b")+"\n"+docLine(t, "c")+"\n")
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("doc-cap status = %d, want 413", status)
	}
	if store2.Count() != 0 {
		t.Fatal("over-cap batch stored documents")
	}
	// Method guard.
	resp, err := http.Get(srv2.URL + "/api/v0/documents:batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d, want 405", resp.StatusCode)
	}
	// Bearer auth applies to the batch POST like any mutating method.
	srv3, store3 := newBatchServer(t, nil, WithToken("sekrit"))
	status, _ = postBatch(t, srv3.URL, docLine(t, "a")+"\n")
	if status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated batch = %d, want 401", status)
	}
	if store3.Count() != 0 {
		t.Fatal("unauthenticated batch stored documents")
	}
	req, err := http.NewRequest(http.MethodPost, srv3.URL+"/api/v0/documents:batch", strings.NewReader(docLine(t, "a")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("authenticated batch = %d, want 201", resp.StatusCode)
	}
	if store3.Count() != 1 {
		t.Fatal("authenticated batch not stored")
	}
}

// binRecord frames one record of the binary batch encoding the server
// once accepted: uvarint id length + id, 4-byte little-endian blob
// length + blob.
func binRecord(id string, blob []byte) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(id)))
	out = append(out, id...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
	return append(out, blob...)
}

// TestBatchBinaryRejections: NDJSON is the one batch encoding. A client
// that still sends the retired binary framing under its old
// Content-Type is refused with nothing stored — the well-formed batch
// the server used to accept included — instead of being half-read.
func TestBatchBinaryRejections(t *testing.T) {
	valid := binRecord("ok", prov.AppendBinary(nil, testDoc()))
	cases := []struct {
		name   string
		body   []byte
		status int
	}{
		{"well formed", valid, http.StatusUnprocessableEntity},
		{"empty body", nil, http.StatusBadRequest},
		{"truncated blob", valid[:len(valid)-3], http.StatusUnprocessableEntity},
		{"truncated id prefix", []byte{0xFF}, http.StatusUnprocessableEntity},
		{"missing id", binRecord("", []byte("{}")), http.StatusUnprocessableEntity},
		{"missing doc", binRecord("x", nil), http.StatusUnprocessableEntity},
		{"garbage blob", binRecord("x", []byte{0x7F, 1, 2}), http.StatusUnprocessableEntity},
		{"duplicate id", append(append([]byte(nil), valid...), valid...), http.StatusUnprocessableEntity},
		{"invalid prov doc", binRecord("x", []byte(`{"wasGeneratedBy":{"g":{"prov:entity":"ex:ghost","prov:activity":"ex:run"}}}`)),
			http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, store := newBatchServer(t, nil)
			resp, err := http.Post(srv.URL+"/api/v0/documents:batch", "application/x-yprov-batch", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			payload, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, payload)
			}
			if store.Count() != 0 {
				t.Fatalf("rejected batch stored %d docs", store.Count())
			}
			if tc.status == http.StatusUnprocessableEntity && !strings.Contains(string(payload), "invalid JSON") {
				t.Fatalf("body %s does not report the line as invalid JSON", payload)
			}
		})
	}
}

// chainBatch is an NDJSON batch of n chain documents of the given depth
// under ids prefix-00, prefix-01, …, with each document's bytes.
func chainBatch(t *testing.T, prefix string, n, depth int) (body []byte, ids []string, docs [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%02d", prefix, i)
		line := chainLine(t, id, depth)
		_, doc, err := scanBatchLine(line)
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, line...), '\n')
		ids, docs = append(ids, id), append(docs, doc)
	}
	return body, ids, docs
}

// serveBatch posts body to svc's batch route in process.
func serveBatch(t *testing.T, svc http.Handler, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v0/documents:batch", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body)
	}
}

// TestBatchJournalsLinesAcrossBufferGrowth: a batch larger than any
// pooled line buffer, of lines that each span several reads, makes the
// line buffer grow and reuses it line after line; the journal record
// still carries every line's document, as its binary encoding, in order.
func TestBatchJournalsLinesAcrossBufferGrowth(t *testing.T) {
	dir := t.TempDir()
	store, err := provstore.Open(dir, provstore.Durability{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	body, ids, docs := chainBatch(t, "grow", 32, 128)
	if len(body) <= maxPooledLineBuf || len(docs[0]) < 8*4096 {
		t.Fatalf("batch of %d B with %d-B documents: too small to outgrow a pooled buffer through many reads", len(body), len(docs[0]))
	}
	serveBatch(t, New(store), body)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("journal holds %d records, want the batch's one", len(rec.Records))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = provstore.Open(dir, provstore.Durability{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i, raw := range docs {
		doc, err := prov.ParseJSON(raw)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := store.View(ids[i]); !ok || !v.Document().Equal(doc) {
			t.Errorf("%s: the journal record does not hold the document the request sent", ids[i])
		}
	}
}

// TestBatchBufferReuseKeepsEarlierBatches: two batches of the same shape
// sent back to back through one handler — on one P, so the second reads
// into the buffer the first released — leave both batches' documents
// stored as sent: the store keeps no byte of a request's buffer.
func TestBatchBufferReuseKeepsEarlierBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	store := provstore.New()
	svc := New(store)
	want := map[string]string{}
	var bodies [][]byte
	for _, prefix := range []string{"first", "again"} {
		body, ids, docs := chainBatch(t, prefix, 8, 33)
		bodies = append(bodies, body)
		for i, id := range ids {
			d, err := prov.ParseJSON(docs[i])
			if err != nil {
				t.Fatal(err)
			}
			want[id] = string(mustMarshal(t, d))
		}
	}
	for _, body := range bodies { // nothing between them to clear the pool
		serveBatch(t, svc, body)
	}
	if got := store.List(); len(got) != len(want) {
		t.Fatalf("store lists %v, want %d documents", got, len(want))
	}
	for id, w := range want {
		v, ok := store.View(id)
		if !ok {
			t.Fatalf("%s missing: the store lists %v", id, store.List())
		}
		if got := string(mustMarshal(t, v.Document())); got != w {
			t.Errorf("%s now reads\n%s\nwant\n%s", id, got, w)
		}
	}
}

func mustMarshal(t *testing.T, d *prov.Document) []byte {
	t.Helper()
	raw, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
