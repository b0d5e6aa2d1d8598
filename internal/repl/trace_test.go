package repl_test

import (
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/repl"
)

// syncBuf is a concurrency-safe log sink: the follower's apply loop
// writes to it while the test reads it.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTraceEndToEnd is the ISSUE-7 acceptance walk: one trace ID,
// chosen by the client, must be visible at every hop — echoed on the
// response (with the span breakdown including the WAL commit wait),
// retained by the primary's flight recorder, and printed by the
// follower when the replicated record is applied.
func TestTraceEndToEnd(t *testing.T) {
	var followerLog syncBuf
	rec := flightrec.New(flightrec.Config{SampleEvery: 1, RuntimeEvery: time.Hour}) // keep every request
	t.Cleanup(rec.Close)
	primary := startPrimary(t, t.TempDir(), provstore.Durability{Fsync: false},
		provservice.WithFlightRecorder(rec))

	fstore := startFollowerStore(t, t.TempDir(), primary.http.URL, 0, false)
	cfg := followerConfig(primary.http.URL, "trace-follower", false)
	cfg.Logger = log.New(&followerLog, "", 0)
	f, err := repl.NewFollower(fstore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	t.Cleanup(func() {
		f.Stop()
		_ = fstore.Close()
	})

	const traceID = "e2e-trace-0042"
	req, err := http.NewRequest(http.MethodPut, primary.http.URL+"/api/v0/documents/traced-doc",
		strings.NewReader(`{"entity":{"ex:data":{"prov:type":"provml:Dataset"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT = %d", resp.StatusCode)
	}

	// Hop 1: the response echoes the client's trace ID and the span
	// breakdown includes the WAL commit wait.
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("response trace = %q, want %q", got, traceID)
	}
	spans := resp.Header.Get(obs.SpanHeader)
	for _, span := range []string{"parse=", "lock=", "stage=", "commit="} {
		if !strings.Contains(spans, span) {
			t.Errorf("span header missing %q: %q", span, spans)
		}
	}

	// Hop 2: the primary's flight recorder retains the request under the
	// ID, with the commit span.
	tr, err := http.Get(primary.http.URL + "/api/v0/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	var got flightrec.Completed
	err = json.NewDecoder(tr.Body).Decode(&got)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("GET debug trace = %d, %v", tr.StatusCode, err)
	}
	hasCommit := false
	for _, sp := range got.Spans {
		hasCommit = hasCommit || sp.Name == "commit"
	}
	if got.Trace != traceID || !hasCommit {
		t.Fatalf("retained record = %+v, want trace %s with a commit span", got, traceID)
	}

	// Hop 3: the follower logs the same ID when it applies the record.
	waitApplied(t, fstore, primary.store.AppliedSeq())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fl := followerLog.String(); strings.Contains(fl, "trace="+traceID) && strings.Contains(fl, "op=put") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower apply log missing trace:\n%s", followerLog.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the document really is on the follower.
	if _, ok := storeGet(fstore, "traced-doc"); !ok {
		t.Fatal("traced-doc not applied on follower")
	}
}
