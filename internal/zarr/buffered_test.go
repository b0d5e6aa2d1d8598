package zarr

import (
	"bytes"
	"fmt"
	"testing"
)

var allDTypes = []DType{Float64, Float32, Int64, Int32}

// eagerWrite is the reference layout: a full-shape array written in one
// shot, every chunk stored at full chunk extent with fill-value padding.
func eagerWrite(t *testing.T, data []float64, chunk int, dt DType, codec Codec) *MemStore {
	t.Helper()
	store := NewMemStore()
	a, err := Create(store, "x", []int{len(data)}, []int{chunk}, dt, codec)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFloat64(data); err != nil {
		t.Fatal(err)
	}
	return store
}

// bufferedAppend streams the same data through the write-behind Append
// path in the given batch sizes, then seals with Flush.
func bufferedAppend(t *testing.T, data []float64, chunk, batch int, dt DType, codec Codec) *MemStore {
	t.Helper()
	store := NewMemStore()
	a, err := Create(store, "x", []int{0}, []int{chunk}, dt, codec)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(data); lo += batch {
		hi := lo + batch
		if hi > len(data) {
			hi = len(data)
		}
		if err := a.Append(data[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	return store
}

func storesEqual(t *testing.T, want, got *MemStore, label string) {
	t.Helper()
	wk, err := want.List("")
	if err != nil {
		t.Fatal(err)
	}
	gk, err := got.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(wk) != len(gk) {
		t.Fatalf("%s: key sets differ: eager %v, buffered %v", label, wk, gk)
	}
	for i, k := range wk {
		if gk[i] != k {
			t.Fatalf("%s: key sets differ: eager %v, buffered %v", label, wk, gk)
		}
		wv, _ := want.Get(k)
		gv, _ := got.Get(k)
		if !bytes.Equal(wv, gv) {
			t.Errorf("%s: key %q differs: eager %d bytes, buffered %d bytes", label, k, len(wv), len(gv))
		}
	}
}

// TestBufferedAppendByteIdentical proves the write-behind buffer is a
// pure latency optimization: after Flush, every store key — chunk
// payloads and ".zarray" metadata — is byte-for-byte identical to the
// eager full-write layout, for every dtype, shuffled (gzip) and plain
// (raw), at lengths around the chunk boundaries and in chunk-aligned,
// mid-chunk and single-value append patterns.
func TestBufferedAppendByteIdentical(t *testing.T) {
	for _, codec := range []Codec{RawCodec{}, GzipCodec{}, GzipCodec{Level: 1}} {
		for _, dt := range allDTypes {
			for _, chunk := range []int{1, 7, 100, 256} {
				for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 3*chunk + 7} {
					if n == 0 {
						continue
					}
					data := make([]float64, n)
					for i := range data {
						data[i] = float64(i%313) - 100
					}
					eager := eagerWrite(t, data, chunk, dt, codec)
					for _, batch := range []int{1, chunk + 1, n} {
						label := fmt.Sprintf("codec=%s dtype=%s chunk=%d n=%d batch=%d", codec.ID(), dt, chunk, n, batch)
						storesEqual(t, eager, bufferedAppend(t, data, chunk, batch, dt, codec), label)
					}
				}
			}
		}
	}
}

// TestBufferedReadSeesUnflushedTail checks the read paths see through
// the buffer before any Flush.
func TestBufferedReadSeesUnflushedTail(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "x", []int{0}, []int{8}, Float64, GzipCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := a.Shape()[0]; got != 3 {
		t.Fatalf("Shape = %d, want 3", got)
	}
	if got := a.Meta().Shape[0]; got != 3 {
		t.Fatalf("Meta shape = %d, want 3", got)
	}
	out, err := a.ReadFloat64()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Fatalf("ReadFloat64 = %v", out)
	}
	// The store must not yet contain the open tail chunk.
	if _, err := store.Get("x/0"); !IsNotExist(err) {
		t.Fatalf("tail chunk persisted before Flush: %v", err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("x/0"); err != nil {
		t.Fatalf("tail chunk missing after Flush: %v", err)
	}
	// Appending across a seal boundary, then reopening after Flush.
	if err := a.Append([]float64{4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := Open(store, "x")
	if err != nil {
		t.Fatal(err)
	}
	out, err = b.ReadFloat64()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 || out[9] != 10 {
		t.Fatalf("reopened read = %v", out)
	}
}

// TestBufferedAppendAfterOpen appends through a reopened array that
// already has a mid-chunk tail in the store.
func TestBufferedAppendAfterOpen(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "x", []int{0}, []int{4}, Float64, RawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := Open(store, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]float64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := b.ReadFloat64()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

// TestWriteFloat64DiscardsBufferedTail: a full overwrite supersedes any
// staged tail data and persists pending metadata.
func TestWriteFloat64DiscardsBufferedTail(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "x", []int{0}, []int{4}, Float64, RawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	repl := []float64{10, 20, 30, 40, 50}
	if err := a.WriteFloat64(repl); err != nil {
		t.Fatal(err)
	}
	b, err := Open(store, "x")
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.ReadFloat64()
	if err != nil {
		t.Fatal(err)
	}
	for i := range repl {
		if out[i] != repl[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], repl[i])
		}
	}
}
