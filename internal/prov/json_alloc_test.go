package prov

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// chainDocJSON writes the document shape the service ingests in bulk
// (bench/corpus.go's chain): depth activities without attributes, depth
// entities with a tag each, and used / wasGeneratedBy relations with
// qualified-name roles linking them into one chain, in MarshalJSON's
// layout.
func chainDocJSON(depth int) []byte {
	var b strings.Builder
	b.WriteString(`{"activity":{`)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `%s"ex:a%d":{}`, comma(i), i)
	}
	b.WriteString(`},"entity":{`)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, `%s"ex:e%d":{"bench:tag":"%016x"}`, comma(i), i, uint64(i)*0x9e3779b97f4a7c15)
	}
	b.WriteString(`},"prefix":{"bench":"http://example.org/ns/bench#","ex":"http://example.org/ns/default#","prov":"http://www.w3.org/ns/prov#"},"used":{`)
	role := func(id string, a, e int) {
		fmt.Fprintf(&b, `"_:%s":{"prov:activity":{"$":"ex:a%d","type":"prov:QUALIFIED_NAME"},"prov:entity":{"$":"ex:e%d","type":"prov:QUALIFIED_NAME"}}`, id, a, e)
	}
	for i := 1; i < depth; i++ {
		b.WriteString(comma(i - 1))
		role(fmt.Sprintf("u%d", i), i, i-1)
	}
	b.WriteString(`},"wasGeneratedBy":{`)
	for i := 0; i < depth; i++ {
		b.WriteString(comma(i))
		role(fmt.Sprintf("g%d", i), i, i)
	}
	b.WriteString(`}}`)
	return []byte(b.String())
}

func comma(i int) string {
	if i > 0 {
		return ","
	}
	return ""
}

// allocsAndBytes reports the heap allocations and bytes of one call of
// fn, averaged over runs.
func allocsAndBytes(runs int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestParseJSONAllocationCeiling pins the decoder's cost on a depth-64
// chain document to a quarter of what the encoding/json decoder it
// replaced (the reference) spends on the same bytes, in allocations and
// in bytes.
func TestParseJSONAllocationCeiling(t *testing.T) {
	data := chainDocJSON(64)
	var sink *Document
	parse := func(fn func([]byte) (*Document, error)) func() {
		return func() {
			d, err := fn(data)
			if err != nil {
				t.Fatal(err)
			}
			sink = d
		}
	}
	refAllocs, refBytes := allocsAndBytes(20, parse(referenceParseJSON))
	allocs, bytes := allocsAndBytes(20, parse(ParseJSON))
	_ = sink
	t.Logf("%d-byte document: %.0f allocs / %.0f B, reference %.0f allocs / %.0f B", len(data), allocs, bytes, refAllocs, refBytes)
	if allocs > refAllocs/4 {
		t.Errorf("ParseJSON makes %.0f allocations, over a quarter of the reference's %.0f", allocs, refAllocs)
	}
	if bytes > refBytes/4 {
		t.Errorf("ParseJSON allocates %.0f bytes, over a quarter of the reference's %.0f", bytes, refBytes)
	}
}

// TestParseJSONRetainedHeap: a decoded document, held, costs no more
// heap than the reference's — the strings it keeps are cut from a few
// chunks instead of being allocated one by one, its records come from
// one slice per section, and it does not pin the input.
func TestParseJSONRetainedHeap(t *testing.T) {
	retained := func(data []byte, fn func([]byte) (*Document, error)) uint64 {
		const n = 100
		docs := make([]*Document, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range docs {
			d, err := fn(data)
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = d
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(docs)
		return (after.HeapAlloc - before.HeapAlloc) / n
	}
	for _, depth := range []int{12, 64, 256} {
		data := chainDocJSON(depth)
		got, ref := retained(data, ParseJSON), retained(data, referenceParseJSON)
		t.Logf("depth %d, %d B of JSON: %d B retained, reference %d B", depth, len(data), got, ref)
		if got > ref {
			t.Errorf("depth %d: a decoded document retains %d B, the reference's %d B", depth, got, ref)
		}
	}
}

func BenchmarkParseJSONChain(b *testing.B) {
	data := chainDocJSON(33)
	for _, c := range []struct {
		name string
		fn   func([]byte) (*Document, error)
	}{{"decoder", ParseJSON}, {"reference", referenceParseJSON}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := c.fn(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
