package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries: a value exactly on a bucket's upper
// bound counts into that bucket (le-inclusive, Prometheus semantics),
// and the next integer counts into the following bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(4, 8, 2, 1)
	bounds := h.rawUppers
	for i, upper := range bounds {
		if got := h.bucketIdx(int64(upper)); got != i {
			t.Errorf("bucketIdx(%d) = %d, want %d (on-bound value must fall into its own bucket)", upper, got, i)
		}
		wantNext := i + 1
		if got := h.bucketIdx(int64(upper) + 1); got != wantNext {
			t.Errorf("bucketIdx(%d) = %d, want %d", upper+1, got, wantNext)
		}
	}
	// Values at or below the first octave clamp into bucket 0; values
	// past the top land in +Inf (the extra slot at the end).
	if got := h.bucketIdx(1); got != 0 {
		t.Errorf("bucketIdx(1) = %d, want 0", got)
	}
	if got := h.bucketIdx(int64(bounds[len(bounds)-1]) * 10); got != len(bounds) {
		t.Errorf("over-range bucketIdx = %d, want +Inf slot %d", got, len(bounds))
	}
}

// TestHistogramBucketOfOneValue: equal observations land in one bucket
// whose upper bound is within one sub-bucket of their value.
func TestHistogramBucketOfOneValue(t *testing.T) {
	h := NewDurationHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Millisecond)) // 1ms, all in one bucket
	}
	s := h.Snapshot()
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if c != 100 || i >= len(h.rawUppers) {
			t.Fatalf("bucket %d holds %d of 100", i, c)
		}
		if le := float64(h.rawUppers[i]) * h.scale; le < 0.0009 || le > 0.0015 {
			t.Errorf("bucket bound %v s, want ~0.001 (within one sub-bucket of 1ms)", le)
		}
	}
	if s.Count != 100 {
		t.Errorf("Count = %d, want 100", s.Count)
	}
	if s.Min != int64(time.Millisecond) || s.Max != int64(time.Millisecond) {
		t.Errorf("min/max = %d/%d, want both %d", s.Min, s.Max, int64(time.Millisecond))
	}
}

// TestHistogramConcurrent hammers Observe and Snapshot from many
// goroutines; run under -race this is the data-race check, and the
// final count must be exact (no lost observations).
func TestHistogramConcurrent(t *testing.T) {
	h := NewDurationHistogram()
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var sum uint64
				for _, c := range s.Counts {
					sum += c
				}
				if sum != s.Count {
					t.Errorf("snapshot internal mismatch: bucket sum %d != count %d", sum, s.Count)
					return
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64((g + 1) * (i + 1)))
			}
		}(g)
	}
	for h.count.Load() < goroutines*perG {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if s := h.Snapshot(); s.Count != goroutines*perG {
		t.Fatalf("lost observations: %d, want %d", s.Count, goroutines*perG)
	}
}

// TestTraceSpans: spans merge by name, the context round-trips, and
// every method is safe on a nil trace.
func TestTraceSpans(t *testing.T) {
	tr := NewTrace("abc-123")
	if tr.ID() != "abc-123" {
		t.Fatalf("ID = %q", tr.ID())
	}
	tr.Observe("lock", 2*time.Millisecond)
	tr.Observe("commit", 5*time.Millisecond)
	tr.Observe("lock", 3*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "lock" || spans[0].Dur != 5*time.Millisecond {
		t.Fatalf("merged spans = %+v", spans)
	}
	if s := tr.SpanString(); !strings.Contains(s, "lock=5.000ms") || !strings.Contains(s, "commit=5.000ms") {
		t.Fatalf("SpanString = %q", s)
	}

	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil trace")
	}

	var nilTr *Trace
	nilTr.Observe("x", time.Second)
	nilTr.StartSpan("y").End()
	if nilTr.ID() != "" || nilTr.SpanString() != "" || nilTr.Spans() != nil {
		t.Fatal("nil trace must be inert")
	}

	// A hostile header value is replaced with a minted ID.
	if id := NewTrace("bad\nvalue").ID(); strings.ContainsAny(id, "\n\"") || id == "" {
		t.Fatalf("header-injection id survived: %q", id)
	}
}

// TestRegistryExposition: the hand-rolled writer produces text the
// strict parser accepts, with cumulative histogram buckets.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.v.Add(7)
	reg.RegisterCounter("test_ops_total", "Operations.", Labels{"kind": "put"}, &c)
	reg.RegisterGaugeFunc("test_depth", "Queue depth.", nil, func() float64 { return 3.5 })
	h := NewDurationHistogram()
	h.Observe(int64(5 * time.Millisecond))
	h.Observe(int64(50 * time.Millisecond))
	reg.RegisterHistogram("test_latency_seconds", "Latency.", nil, h)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition rejected by parser: %v\n%s", err, out)
	}
	for _, want := range []string{
		`test_ops_total{kind="put"} 7`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 2`,
		"test_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Nil registry: all registration and writing is a no-op.
	var nilReg *Registry
	nilReg.RegisterCounter("x_total", "", nil, &c)
	nilReg.WritePrometheus(&buf)
}

// TestValidateExposition rejects the malformed shapes it exists to
// catch.
func TestValidateExposition(t *testing.T) {
	bad := []struct{ name, text string }{
		{"sample before TYPE ok but dup TYPE", "# TYPE a counter\na 1\n# TYPE a counter\na 2\n"},
		{"bad metric name", "9bad 1\n"},
		{"bad value", "a one\n"},
		{"unterminated label", `a{x="y 1` + "\n"},
		{"duplicate label", `a{x="1",x="2"} 1` + "\n"},
		{"histogram without +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
	}
	for _, tc := range bad {
		if err := ValidateExposition([]byte(tc.text)); err == nil {
			t.Errorf("%s: accepted invalid exposition", tc.name)
		}
	}
	good := "# HELP a Things.\n# TYPE a counter\na{k=\"v\"} 1\n# TYPE g gauge\ng -2.5e3\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("rejected valid exposition: %v", err)
	}
}

// TestHistogramObserveAllocatesNothing gates the contract every
// request, fsync and lock acquisition relies on: an observation is
// atomic adds on preallocated buckets and never allocates.
// BenchmarkHistObserve reports what it costs.
func TestHistogramObserveAllocatesNothing(t *testing.T) {
	h := NewDurationHistogram()
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(v % int64(time.Second))
		v += 4099
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkHistObserve measures one histogram observation, serially
// and from every P at once (the contention the request path sees).
func BenchmarkHistObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		h := NewDurationHistogram()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i)%int64(time.Second) + 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		h := NewDurationHistogram()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := int64(1)
			for pb.Next() {
				h.Observe(v % int64(time.Second))
				v += 4099
			}
		})
	})
}
