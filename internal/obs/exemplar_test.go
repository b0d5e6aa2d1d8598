package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExemplarBucketAttribution: an exemplar lands in exactly the
// bucket its count landed in, including the le-inclusive boundary
// cases, the clamped bottom bucket, and the +Inf bucket.
func TestExemplarBucketAttribution(t *testing.T) {
	h := NewHistogram(4, 8, 2, 1).EnableExemplars()
	bounds := h.rawUppers
	for i, upper := range bounds {
		id := fmt.Sprintf("on-%d", i)
		h.ObserveExemplar(int64(upper), id) // exactly on the bound → this bucket
		ex, ok := h.ExemplarAt(i)
		if !ok || ex.TraceID != id || ex.Value != float64(upper) {
			t.Fatalf("bucket %d (le=%d): exemplar = %+v ok=%v, want trace %q", i, upper, ex, ok, id)
		}
		idNext := fmt.Sprintf("past-%d", i)
		h.ObserveExemplar(int64(upper)+1, idNext) // one past → next bucket
		ex, ok = h.ExemplarAt(i + 1)
		if !ok || ex.TraceID != idNext {
			t.Fatalf("bucket %d: exemplar = %+v ok=%v, want trace %q", i+1, ex, ok, idNext)
		}
		// The on-bound exemplar must not have been displaced.
		if ex, _ := h.ExemplarAt(i); ex.TraceID != id {
			t.Fatalf("bucket %d exemplar displaced by next-bucket observation: %+v", i, ex)
		}
	}
	h.ObserveExemplar(1, "clamped")
	if ex, ok := h.ExemplarAt(0); !ok || ex.TraceID != "clamped" {
		t.Fatalf("bottom-clamped exemplar = %+v ok=%v", ex, ok)
	}
	h.ObserveExemplar(int64(bounds[len(bounds)-1])*10, "inf")
	if ex, ok := h.ExemplarAt(len(bounds)); !ok || ex.TraceID != "inf" {
		t.Fatalf("+Inf exemplar = %+v ok=%v", ex, ok)
	}
	// Latest observation wins within a bucket.
	h.ObserveExemplar(1, "newer")
	if ex, _ := h.ExemplarAt(0); ex.TraceID != "newer" {
		t.Fatalf("bucket 0 exemplar = %+v, want newest", ex)
	}
}

// TestExemplarDisabled: without EnableExemplars, ObserveExemplar still
// counts but publishes nothing, and ExemplarAt reports absence.
func TestExemplarDisabled(t *testing.T) {
	h := NewDurationHistogram()
	h.ObserveExemplar(int64(time.Millisecond), "tr1")
	if h.count.Load() != 1 {
		t.Fatalf("Count = %d, want 1", h.count.Load())
	}
	if _, ok := h.ExemplarAt(0); ok {
		t.Fatal("exemplar reported on a histogram without exemplars enabled")
	}
	// Empty trace IDs never publish even when enabled.
	h2 := NewDurationHistogram().EnableExemplars()
	h2.ObserveExemplar(int64(time.Millisecond), "")
	for i := 0; i <= len(h2.rawUppers); i++ {
		if _, ok := h2.ExemplarAt(i); ok {
			t.Fatalf("empty trace ID published an exemplar at bucket %d", i)
		}
	}
}

// TestExemplarExposition: a registry holding exemplar-bearing
// histograms renders `# {trace_id="..."}` suffixes that the strict
// parser accepts, alongside exemplar-free families.
func TestExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := NewDurationHistogram().EnableExemplars()
	h.ObserveDurationExemplar(5*time.Millisecond, "trace-a")
	h.ObserveDurationExemplar(250*time.Millisecond, "trace-b")
	h.ObserveDuration(time.Millisecond) // no exemplar for this bucket
	reg.RegisterHistogram("test_latency_seconds", "Latency.", Labels{"route": "documents"}, h)
	var c Counter
	c.Inc()
	reg.RegisterCounter("test_ops_total", "Ops.", nil, &c)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exemplar exposition rejected by parser: %v\n%s", err, out)
	}
	if !strings.Contains(out, `# {trace_id="trace-a"} 0.005`) {
		t.Errorf("exposition missing trace-a exemplar:\n%s", out)
	}
	if !strings.Contains(out, `# {trace_id="trace-b"} 0.25`) {
		t.Errorf("exposition missing trace-b exemplar:\n%s", out)
	}
	if n := strings.Count(out, "# {trace_id="); n != 2 {
		t.Errorf("want exactly 2 exemplar suffixes, got %d:\n%s", n, out)
	}
}

// TestValidateExpositionExemplars: the parser accepts well-formed
// exemplars only where the format allows them, and rejects exemplars
// whose value lies outside the bucket they annotate.
func TestValidateExpositionExemplars(t *testing.T) {
	good := "# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1 # {trace_id=\"aa\"} 0.5 1700000000.000\n" +
		"h_bucket{le=\"2\"} 3 # {trace_id=\"bb\"} 2\n" +
		"h_bucket{le=\"+Inf\"} 4 # {trace_id=\"cc\"} 99\n" +
		"h_sum 10\nh_count 4\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Fatalf("rejected valid exemplar exposition: %v", err)
	}

	bad := []struct{ name, text string }{
		{"exemplar on counter",
			"# TYPE c counter\nc_total 1 # {trace_id=\"x\"} 1\n"},
		{"exemplar on histogram sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1 # {trace_id=\"x\"} 1\nh_count 1\n"},
		{"exemplar without label set",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # 1\nh_sum 1\nh_count 1\n"},
		{"exemplar bad value",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"x\"} nope\nh_sum 1\nh_count 1\n"},
		{"exemplar bad label name",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {9x=\"y\"} 1\nh_sum 1\nh_count 1\n"},
		{"exemplar value above le",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1 # {trace_id=\"x\"} 5\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
		{"exemplar value at or below previous le",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2 # {trace_id=\"x\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"},
		{"exemplar label set over 128 runes",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"" + strings.Repeat("a", 129) + "\"} 1\nh_sum 1\nh_count 1\n"},
	}
	for _, tc := range bad {
		if err := ValidateExposition([]byte(tc.text)); err == nil {
			t.Errorf("%s: accepted invalid exposition", tc.name)
		}
	}
}

// TestExemplarConcurrent hammers ObserveExemplar against concurrent
// exposition writes; under -race this is the data-race check, and
// every rendered exposition must stay parser-valid mid-flight.
func TestExemplarConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := NewDurationHistogram().EnableExemplars()
	reg.RegisterHistogram("test_latency_seconds", "Latency.", nil, h)
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
					h.ObserveExemplar(int64((g+1)*(i%1_000_000+1)), fmt.Sprintf("g%d-%d", g, i))
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		if err := ValidateExposition(buf.Bytes()); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("mid-flight exposition invalid: %v\n%s", err, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}

// TestParseSamples: the loose sample parser extracts every series for
// scrape-diffing, exemplars included, and rejects a malformed line.
func TestParseSamples(t *testing.T) {
	text := "# HELP a Things.\n# TYPE a counter\n" +
		"a{reason=\"queue\"} 3\na{reason=\"wait\"} 4\n" +
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {trace_id=\"x\"} 0.5\nh_sum 0.5\nh_count 1\n"
	samples, err := ParseSamples([]byte(text))
	if err != nil {
		t.Fatalf("ParseSamples: %v", err)
	}
	if len(samples) != 5 || samples[1].Name != "a" || samples[1].Labels["reason"] != "wait" || samples[1].Value != 4 {
		t.Fatalf("ParseSamples = %+v, want 5 samples, the second a{reason=\"wait\"} 4", samples)
	}
	if _, err := ParseSamples([]byte("9bad 1\n")); err == nil {
		t.Fatal("ParseSamples accepted an invalid line")
	}
}
