package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func testConfig() Config {
	return Config{
		TraceRing:     64,
		SlowLogK:      4,
		SlowThreshold: 100 * time.Millisecond,
		SlowLogFloor:  time.Millisecond,
		SampleEvery:   -1, // reservoir off unless a test opts in
		RuntimeEvery:  time.Hour,
	}
}

// TestSamplingPolicy: errors, sheds, and slow requests are always
// recorded; unremarkable requests follow the 1-in-N reservoir.
func TestSamplingPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.SampleEvery = 10
	r := New(cfg)
	defer r.Close()

	fast := 10 * time.Microsecond // below SlowLogFloor: never slow-log seeded
	for _, tc := range []struct {
		name   string
		status int
		shed   bool
		dur    time.Duration
	}{
		{"server error", 500, false, fast},
		{"shed status", 429, false, fast},
		{"shed flag", 200, true, fast},
		{"slow", 200, false, 150 * time.Millisecond},
	} {
		if !r.Observe("documents", tc.status, tc.shed, tc.dur) {
			t.Errorf("%s: not sampled, must always be", tc.name)
		}
	}

	sampled := 0
	for i := 0; i < 1000; i++ {
		if r.Observe("documents", 200, false, fast) {
			sampled++
		}
	}
	if sampled != 100 {
		t.Errorf("reservoir sampled %d of 1000, want exactly 100 (1 in 10)", sampled)
	}

	// With the reservoir disabled nothing unremarkable is kept.
	r2 := New(testConfig())
	defer r2.Close()
	for i := 0; i < 100; i++ {
		if r2.Observe("documents", 200, false, fast) {
			t.Fatal("sampled an unremarkable request with reservoir disabled")
		}
	}
}

// TestSlowLogTopK: the slow log keeps the top-K by duration per
// route, the cached min threshold gates the fast path, and entries
// come back sorted slowest first with their cache state.
func TestSlowLogTopK(t *testing.T) {
	r := New(testConfig())
	defer r.Close()

	// While a route's log is not full, qualifying durations sample in.
	if !r.Observe("search", 200, false, 2*time.Millisecond) {
		t.Fatal("first slow-log candidate not sampled")
	}
	for i := 1; i <= 10; i++ {
		r.Add(&Completed{
			Trace: fmt.Sprintf("t%d", i),
			Route: "search",
			Cache: "miss",
			Dur:   time.Duration(i) * time.Millisecond,
		})
	}
	log := r.SlowLog()
	entries := log["search"]
	if len(entries) != 4 {
		t.Fatalf("slow log kept %d entries, want K=4", len(entries))
	}
	for i, wantMs := range []int{10, 9, 8, 7} {
		if entries[i].Dur != time.Duration(wantMs)*time.Millisecond {
			t.Errorf("slow log [%d] = %v, want %dms", i, entries[i].Dur, wantMs)
		}
	}
	if entries[0].Trace != "t10" || entries[0].Cache != "miss" {
		t.Errorf("slowest entry = %+v, want trace t10 cache miss", entries[0])
	}

	// Full log: the cached min threshold rejects sub-min durations on
	// the fast path, accepts anything that would displace an entry.
	if r.Observe("search", 200, false, 3*time.Millisecond) {
		t.Error("3ms sampled in although the slow-log min is 7ms")
	}
	if !r.Observe("search", 200, false, 20*time.Millisecond) {
		t.Error("20ms must qualify for the slow log")
	}
	// A different route has its own empty log.
	if !r.Observe("lineage", 200, false, 2*time.Millisecond) {
		t.Error("fresh route must seed its own slow log")
	}
}

// TestTraceRing: the ring retains the newest records, newest first,
// and TraceByID finds retained records.
func TestTraceRing(t *testing.T) {
	cfg := testConfig()
	cfg.TraceRing = 8
	r := New(cfg)
	defer r.Close()
	for i := 1; i <= 20; i++ {
		r.Add(&Completed{Trace: fmt.Sprintf("t%d", i), Route: "documents", Dur: time.Microsecond})
	}
	traces := r.Traces(0)
	if len(traces) != 8 {
		t.Fatalf("ring holds %d, want 8", len(traces))
	}
	for i, c := range traces {
		if want := fmt.Sprintf("t%d", 20-i); c.Trace != want {
			t.Errorf("traces[%d] = %s, want %s", i, c.Trace, want)
		}
	}
	if got := r.Traces(3); len(got) != 3 || got[0].Trace != "t20" {
		t.Errorf("Traces(3) = %d entries first %s", len(got), got[0].Trace)
	}
	if c := r.TraceByID("t15"); c == nil || c.Trace != "t15" {
		t.Errorf("TraceByID(t15) = %+v", c)
	}
	if c := r.TraceByID("t1"); c != nil {
		t.Errorf("evicted trace still found: %+v", c)
	}
}

// TestRingAndSlowLogConcurrent hammers the ring and slow log from
// concurrent writers while readers snapshot — the -race check for the
// recorder's lock-free structures.
func TestRingAndSlowLogConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.SampleEvery = 2
	r := New(cfg)
	defer r.Close()
	const writers, perW = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // concurrent readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, c := range r.Traces(0) {
						if c.Trace == "" {
							t.Error("retained record with empty trace ID")
							return
						}
					}
					for _, entries := range r.SlowLog() {
						for i := 1; i < len(entries); i++ {
							if entries[i].Dur > entries[i-1].Dur {
								t.Error("slow log snapshot not sorted")
								return
							}
						}
					}
					r.TraceByID("w3-17")
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				dur := time.Duration(i%5000) * time.Microsecond
				if r.Observe("documents", 200, false, dur) {
					r.Add(&Completed{
						Trace: fmt.Sprintf("w%d-%d", g, i),
						Route: "documents",
						Dur:   dur,
						Spans: []Span{{Name: "lock", Dur: dur / 4}},
					})
				}
			}
		}(g)
	}
	for r.RequestsSeen() < writers*perW {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := r.RequestsSeen(); got != writers*perW {
		t.Fatalf("RequestsSeen = %d, want %d", got, writers*perW)
	}
}

// TestBundleFreezeDuringLoad: freezing while writers are adding
// records yields internally consistent, JSON-marshalable bundles.
func TestBundleFreezeDuringLoad(t *testing.T) {
	cfg := testConfig()
	cfg.SampleEvery = 1
	cfg.MaxBundles = 3
	cfg.FreezeCooldown = time.Nanosecond
	r := New(cfg)
	defer r.Close()
	reg := obs.NewRegistry()
	r.RegisterObs(reg)
	r.SetConfig([]byte(`{"addr":":3000"}`))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					dur := time.Duration(i%1000) * time.Microsecond
					if r.Observe("batch", 200, false, dur) {
						r.Add(&Completed{Trace: fmt.Sprintf("g%d-%d", g, i), Route: "batch", Dur: dur})
					}
				}
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		b := r.Freeze("load-test", "")
		if b == nil {
			continue // suppressed by a same-instant freeze
		}
		if b.Requests < b.Records {
			t.Fatalf("bundle says %d requests < %d records", b.Requests, b.Records)
		}
		for _, c := range b.Traces {
			if c == nil || c.Trace == "" {
				t.Fatal("bundle trace missing or empty")
			}
		}
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("bundle does not marshal: %v", err)
		}
		var back Bundle
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("bundle does not round-trip: %v", err)
		}
		if back.Reason != "load-test" || len(back.Config) == 0 || back.Metrics == "" {
			t.Fatalf("round-tripped bundle incomplete: reason=%q config=%d metrics=%d",
				back.Reason, len(back.Config), len(back.Metrics))
		}
	}
	close(stop)
	wg.Wait()
	if len(r.Bundles()) > cfg.MaxBundles {
		t.Fatalf("bundle retention grew past the cap: %d", len(r.Bundles()))
	}
}

// TestTriggers: fail-stop latches exactly once, shed spikes and p99
// breaches freeze, and the cooldown suppresses refreezes per kind.
func TestTriggers(t *testing.T) {
	t.Run("fail-stop latch", func(t *testing.T) {
		r := New(testConfig())
		defer r.Close()
		r.NoteFailStop("wal: disk gone")
		b := r.Frozen()
		if b == nil || !strings.Contains(b.Reason, "fail-stop: wal: disk gone") {
			t.Fatalf("Frozen = %+v", b)
		}
		r.NoteFailStop("again")
		if r.Frozen() != b {
			t.Fatal("fail-stop froze twice")
		}
	})
	t.Run("shed spike", func(t *testing.T) {
		cfg := testConfig()
		cfg.ShedSpikeCount = 5
		cfg.ShedSpikeWindow = time.Minute
		r := New(cfg)
		defer r.Close()
		for i := 0; i < 4; i++ {
			r.Observe("documents", 429, true, time.Millisecond)
		}
		if r.Frozen() != nil {
			t.Fatal("froze before the spike threshold")
		}
		r.Observe("documents", 429, true, time.Millisecond)
		b := r.Frozen()
		if b == nil || !strings.Contains(b.Reason, "shed-spike") {
			t.Fatalf("Frozen = %+v", b)
		}
	})
	t.Run("p99 over threshold", func(t *testing.T) {
		cfg := testConfig()
		cfg.P99Threshold = time.Millisecond
		r := New(cfg)
		defer r.Close()
		for i := 0; i < 1024; i++ {
			r.Observe("documents", 200, false, 10*time.Millisecond)
		}
		b := r.Frozen()
		if b == nil || !strings.Contains(b.Reason, "p99-over-threshold") {
			t.Fatalf("Frozen = %+v", b)
		}
	})
	t.Run("cooldown", func(t *testing.T) {
		r := New(testConfig()) // default 1m cooldown
		defer r.Close()
		if r.Freeze("kind-a", "first") == nil {
			t.Fatal("first freeze suppressed")
		}
		if r.Freeze("kind-a", "second") != nil {
			t.Fatal("cooldown did not suppress a refreeze")
		}
		if r.Freeze("kind-b", "other") == nil {
			t.Fatal("cooldown leaked across trigger kinds")
		}
	})
}

// TestRuntimeTelemetry: the poller window fills, gauges register, and
// the exposition including runtime gauges stays parser-valid.
func TestRuntimeTelemetry(t *testing.T) {
	cfg := testConfig()
	cfg.RuntimeEvery = 5 * time.Millisecond
	cfg.RuntimeWindow = 10
	r := New(cfg)
	defer r.Close()
	reg := obs.NewRegistry()
	r.RegisterObs(reg)

	deadline := time.Now().Add(2 * time.Second)
	for len(r.rt.Window()) < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	w := r.rt.Window()
	if len(w) < 3 {
		t.Fatalf("runtime window has %d samples, want >= 3", len(w))
	}
	last := w[len(w)-1]
	if last.HeapBytes == 0 || last.Goroutines == 0 {
		t.Fatalf("runtime sample looks empty: %+v", last)
	}
	if len(w) > cfg.RuntimeWindow {
		t.Fatalf("window grew past cap: %d", len(w))
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("runtime gauge exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"yprov_runtime_heap_bytes", "yprov_runtime_goroutines", "yprov_flightrec_requests_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestNilRecorder: every exported method is a safe no-op on nil, so
// call sites never need wiring guards.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Observe("x", 500, true, time.Second) {
		t.Fatal("nil recorder sampled")
	}
	r.Add(&Completed{Trace: "t"})
	r.NoteFailStop("x")
	if r.Freeze("k", "d") != nil || r.Capture("c") != nil || r.Frozen() != nil {
		t.Fatal("nil recorder produced a bundle")
	}
	if r.Traces(0) != nil || r.SlowLog() != nil || r.TraceByID("t") != nil || r.Bundles() != nil {
		t.Fatal("nil recorder returned data")
	}
	r.SetConfig([]byte("{}"))
	r.Close()
}

// flightRecFixture builds a recorder in steady state: the p99 trigger
// armed (so the rolling latency histogram is paid for) and the route's
// slow log full of 50ms entries, so a 200µs request takes the longest
// rejection path — histogram observe, trigger counter, slow-log
// cached-min check — before being turned away.
func flightRecFixture(tb testing.TB, sampleEvery int) *Recorder {
	tb.Helper()
	rec := New(Config{P99Threshold: 2 * time.Second, SampleEvery: sampleEvery})
	for i := 0; i < 8; i++ {
		rec.Add(&Completed{Trace: fmt.Sprintf("seed%d", i), Route: "lineage", Dur: 50 * time.Millisecond})
	}
	return rec
}

// TestObserveUnsampledAllocatesNothing gates the response-path
// contract: turning an unremarkable request away allocates nothing.
// BenchmarkFlightRecord/unsampled reports what it costs.
func TestObserveUnsampledAllocatesNothing(t *testing.T) {
	rec := flightRecFixture(t, -1)
	defer rec.Close()
	if n := testing.AllocsPerRun(1000, func() {
		if rec.Observe("lineage", 200, false, 200*time.Microsecond) {
			t.Fatal("unremarkable request sampled in")
		}
	}); n != 0 {
		t.Fatalf("unsampled Observe allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkFlightRecord measures the recorder's cost per completed
// request: unsampled is the fast path every unremarkable request takes;
// sampled adds building and retaining the full record with a span
// breakdown, the price paid only by the kept minority.
func BenchmarkFlightRecord(b *testing.B) {
	b.Run("unsampled", func(b *testing.B) {
		rec := flightRecFixture(b, -1)
		defer rec.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec.Observe("lineage", 200, false, 200*time.Microsecond) {
				b.Fatal("unremarkable request sampled in")
			}
		}
	})
	b.Run("unsampled-parallel", func(b *testing.B) {
		rec := flightRecFixture(b, -1)
		defer rec.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rec.Observe("lineage", 200, false, 200*time.Microsecond)
			}
		})
	})
	b.Run("sampled", func(b *testing.B) {
		rec := flightRecFixture(b, 1)
		defer rec.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec.Observe("lineage", 200, false, 200*time.Microsecond) {
				rec.Add(&Completed{
					Trace: "bench-trace",
					Route: "lineage",
					Dur:   200 * time.Microsecond,
					Spans: []Span{{Name: "lock", Dur: time.Microsecond}, {Name: "cache", Dur: 2 * time.Microsecond}},
				})
			}
		}
	})
}
