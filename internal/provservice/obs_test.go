package provservice

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/provstore"
)

// TestPromMetricsExposition: GET /metrics serves parseable Prometheus
// text covering the HTTP route histograms, the WAL instruments, the
// admission shed counters, and replication-independent store gauges.
func TestPromMetricsExposition(t *testing.T) {
	store, err := provstore.Open(t.TempDir(), provstore.Durability{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.RegisterObs(reg)
	svc := New(store,
		WithRegistry(reg),
		WithAdmission(AdmissionConfig{ShedLatencyTarget: time.Hour}),
	)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Close() })

	// Drive traffic so route series exist: one write, one read, one 404.
	put, err := http.NewRequest(http.MethodPut, srv.URL+"/api/v0/documents/m1",
		strings.NewReader(`{"entity":{"ex:e":{}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(put); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %v (status %v)", err, resp.Status)
	} else {
		resp.Body.Close()
	}
	for _, path := range []string{"/api/v0/documents/m1", "/api/v0/documents/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// One checkpoint, so the background-work instruments hold a sample.
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, body)
	}
	out := string(body)
	for _, family := range []string{
		"yprov_http_request_seconds",
		"yprov_http_requests_total",
		"yprov_http_inflight",
		"yprov_wal_fsync_seconds",
		"yprov_wal_group_commit_records",
		"yprov_wal_commit_queue_depth",
		"yprov_shard_lock_wait_seconds",
		"yprov_store_documents",
		"yprov_store_checkpoint_seconds",
		"yprov_store_checkpoint_bytes_total",
		"yprov_admission_shed_total",
	} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// The write actually landed in the instruments.
	if !strings.Contains(out, `yprov_http_requests_total{code="2xx",route="documents/id"}`) {
		t.Errorf("missing per-route status counter:\n%s", out)
	}
	// So did the checkpoint: one timed, of the one document stored.
	for _, sample := range []string{"yprov_store_checkpoint_seconds_count 1\n", "yprov_store_documents 1\n"} {
		if !strings.Contains(out, sample) {
			t.Errorf("/metrics lacks %q", sample)
		}
	}

	// /stats tells the same checkpoint story beside the snapshot counter.
	sr, err := http.Get(srv.URL + "/api/v0/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	sb, _ := io.ReadAll(sr.Body)
	for _, field := range []string{`"snapshots":1`, `"last_checkpoint_ms":`, `"checkpoint_docs":1`} {
		if !strings.Contains(string(sb), field) {
			t.Errorf("/api/v0/stats lacks %s: %s", field, sb)
		}
	}
}

// TestTraceHeaderAndSlowLog: the response echoes the request's trace
// ID (or mints one).
func TestTraceHeaderAndSlowLog(t *testing.T) {
	srv, _ := newTestServer(t)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v0/documents", nil)
	req.Header.Set(obs.TraceHeader, "my-trace-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "my-trace-01" {
		t.Fatalf("trace echo = %q, want my-trace-01", got)
	}

	// Without a client-supplied ID the server mints one.
	resp2, err := http.Get(srv.URL + "/api/v0/documents")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get(obs.TraceHeader) == "" {
		t.Fatal("server did not mint a trace ID")
	}
}
