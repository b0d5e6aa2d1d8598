package provservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/provstore"
	"repro/internal/wal"
)

// overloadStore reports a scripted commit wait, and can hold writes
// in Apply, so admission decisions can be tested without racing a real
// fsync backlog.
type overloadStore struct {
	*provstore.Store
	estWait atomic.Int64 // nanoseconds
	// entered, when non-nil, receives one value per Apply, which then
	// waits for release to close.
	entered chan struct{}
	release chan struct{}
}

func (o *overloadStore) CommitWait() time.Duration {
	return time.Duration(o.estWait.Load())
}

func (o *overloadStore) Apply(ctx context.Context, ops []provstore.Op) error {
	if o.entered != nil {
		o.entered <- struct{}{}
		<-o.release
	}
	return o.Store.Apply(ctx, ops)
}

func newOverloadServer(t *testing.T, cfg AdmissionConfig, opts ...Option) (*httptest.Server, *overloadStore) {
	t.Helper()
	os := &overloadStore{Store: provstore.New()}
	opts = append(opts, WithAdmission(cfg))
	svc := New(os, opts...)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv, os
}

func putDoc(t *testing.T, url, id, token string, hdr map[string]string) *http.Response {
	t.Helper()
	body, err := testDoc().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url+"/api/v0/documents/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

// Writes over the in-flight limit shed with 429 + Retry-After, reads
// and the exempt route classes keep answering.
func TestAdmissionShedsWritesNotReads(t *testing.T) {
	os := &overloadStore{
		Store:   provstore.New(),
		entered: make(chan struct{}, 1), // the post-recovery write's entry goes unread
		release: make(chan struct{}),
	}
	srv := httptest.NewServer(New(os, WithAdmission(AdmissionConfig{MaxInflightWrites: 1})))
	t.Cleanup(srv.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(os.release) }) }
	t.Cleanup(release) // before srv.Close, which waits for the held request

	// One write held inside the store: the in-flight limit is reached.
	held := make(chan int, 1)
	go func() {
		body, _ := testDoc().MarshalJSON()
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/v0/documents/held", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			held <- 0
			return
		}
		_ = resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-os.entered

	resp := putDoc(t, srv.URL, "shed-me", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("PUT over the in-flight limit = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("shed Retry-After = %q, want >= 1s", resp.Header.Get("Retry-After"))
	}

	// Reads are never shed by admission.
	for _, path := range []string{"/api/v0/documents", "/api/v0/stats", "/healthz"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s under overload = %d, want 200", path, r.StatusCode)
		}
	}

	// Exempt route classes pass admission even as mutations: POST
	// /healthz reaches the handler (200), and a repl POST must never see
	// a 429 minted by admission (404 here — no repl server is mounted).
	r, err := http.Post(srv.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("POST /healthz under overload = %d, want 200 (exempt)", r.StatusCode)
	}
	r, err = http.Post(srv.URL+"/api/v0/repl/ack", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Body.Close()
	if r.StatusCode == http.StatusTooManyRequests {
		t.Fatal("repl route was shed by admission")
	}

	// The shed counter surfaces on /metrics, under the threshold that
	// tripped.
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{
		`yprov_admission_shed_total{reason="inflight-writes"} 1` + "\n",
		`yprov_admission_shed_total{reason="est-commit-wait"} 0` + "\n",
	} {
		if !strings.Contains(string(exposition), sample) {
			t.Fatalf("/metrics lacks %q:\n%s", sample, exposition)
		}
	}

	// Recovery: the held write completes, writes are admitted again.
	release()
	if code := <-held; code != http.StatusCreated {
		t.Fatalf("held PUT = %d, want 201", code)
	}
	if resp := putDoc(t, srv.URL, "ok-now", "", nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-recovery PUT = %d, want 201", resp.StatusCode)
	}
}

// Auth sits outside admission: a bad token is a 401 even under
// overload — unauthenticated traffic cannot probe queue state, and a
// 429 must not teach clients to retry a request that will never be
// authorized.
func TestAdmissionAuthBeforeShed(t *testing.T) {
	srv, os := newOverloadServer(t, AdmissionConfig{ShedLatencyTarget: time.Second}, WithToken("s3cret"))
	os.estWait.Store(int64(2 * time.Second))

	if resp := putDoc(t, srv.URL, "x", "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated PUT under overload = %d, want 401", resp.StatusCode)
	}
	if resp := putDoc(t, srv.URL, "x", "s3cret", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("authenticated PUT under overload = %d, want 429", resp.StatusCode)
	}
}

// The latency-target check: estimated commit wait over target sheds,
// and Retry-After reflects the estimated drain time (ceil, capped).
func TestAdmissionLatencyTarget(t *testing.T) {
	srv, os := newOverloadServer(t, AdmissionConfig{ShedLatencyTarget: time.Second})
	os.estWait.Store(int64(2500 * time.Millisecond))

	resp := putDoc(t, srv.URL, "slow", "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("PUT over latency target = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q (ceil of 2.5s wait)", got, "3")
	}
}

// A request whose deadline has already expired is refused with 503
// before it stages anything: the journal's append counter must not
// move.
func TestDeadlineExpiredConsumesNoTicket(t *testing.T) {
	store, err := provstore.Open(t.TempDir(), provstore.Durability{Fsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(store, WithRequestTimeout(time.Nanosecond))
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Close() })

	appendsBefore := store.Log().Stats().Appends
	resp := putDoc(t, srv.URL, "too-late", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-deadline PUT = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline 503 missing Retry-After")
	}
	if after := store.Log().Stats().Appends; after != appendsBefore {
		t.Fatalf("expired request consumed %d journal appends", after-appendsBefore)
	}
}

// The X-Yprov-Timeout-Ms header shortens (never extends) the server
// deadline: a 1ms budget against a 300ms fsync returns 503 promptly
// and leaves the store healthy.
func TestDeadlineHeaderShortensCommitWait(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	store, err := provstore.Open(t.TempDir(), provstore.Durability{Fsync: true, SnapshotEvery: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(store, WithRequestTimeout(5*time.Second))
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Close() })

	ffs.SlowSyncs(300 * time.Millisecond)
	start := time.Now()
	resp := putDoc(t, srv.URL, "impatient", "", map[string]string{"X-Yprov-Timeout-Ms": "1"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("1ms-budget PUT = %d, want 503", resp.StatusCode)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("deadline response took %v — waited out the fsync instead", took)
	}
	ffs.Clear()
	// Not latched: a patient write still succeeds.
	if resp := putDoc(t, srv.URL, "patient", "", nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-deadline PUT = %d, want 201", resp.StatusCode)
	}
}

// A header budget too large for time.Duration is capped at the server
// deadline, not overflowed into a negative one that expires at once.
func TestDeadlineHeaderOverflowCapped(t *testing.T) {
	store := provstore.New()
	svc := New(store, WithRequestTimeout(5*time.Second))
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	for _, ms := range []string{"10000000000000", "9223372036854775807"} {
		if resp := putDoc(t, srv.URL, "big-"+ms, "", map[string]string{"X-Yprov-Timeout-Ms": ms}); resp.StatusCode != http.StatusCreated {
			t.Errorf("PUT with X-Yprov-Timeout-Ms %s = %d, want 201", ms, resp.StatusCode)
		}
	}
}

// Fail-stop latch observability: once the journal latches, /healthz
// degrades with the reason and /api/v0/stats carries it under
// durability.fail_stop.
func TestHealthzReportsFailStopLatch(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	store, err := provstore.Open(t.TempDir(), provstore.Durability{Fsync: true, SnapshotEvery: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(store)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Close() })

	// Healthy first.
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz = %d", r.StatusCode)
	}

	// Latch the journal with an injected device error.
	ffs.FailWrites(0, errors.New("injected: device error"))
	if _, err := store.Log().Append([]byte(`{"op":"delete","id":"never-acked"}`)); err == nil {
		t.Fatal("injected write error did not surface")
	}

	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("latched /healthz = %d, want 503", r.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
		Detail string `json:"detail"`
	}
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Reason != "journal fail-stop" || health.Detail == "" {
		t.Fatalf("latched health body = %+v", health)
	}

	sr, err := http.Get(srv.URL + "/api/v0/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats struct {
		Durability struct {
			FailStop string `json:"fail_stop"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Durability.FailStop == "" {
		t.Fatal("/stats durability.fail_stop empty on a latched journal")
	}
}
