package zarr

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"testing"
)

// TestGzipEncodeAfterGC: the deflate state outlives a GC, so an encode
// after two collections allocates its output, not a fresh ≈ 0.6 MB
// compressor.
func TestGzipEncodeAfterGC(t *testing.T) {
	src := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KB
	if _, err := (GzipCodec{}).Encode(src); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc, err := GzipCodec{}.Encode(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("one 4 KB Encode after GC allocated %d bytes, want < 64 KB", got)
	}
	r, err := gzip.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if back, err := io.ReadAll(r); err != nil || !bytes.Equal(back, src) {
		t.Fatalf("round trip: %d bytes, %v", len(back), err)
	}
}

// TestGzipEncodeMatchesStdlib: a reused deflate state writes the stream
// a fresh default-level gzip.Writer writes, and the stream Encode
// returns is not overwritten by the next Encode.
func TestGzipEncodeMatchesStdlib(t *testing.T) {
	inputs := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{7, 0, 0, 0, 0, 0, 0, 0}, 4096), []byte("the quick brown fox")}
	var streams [][]byte
	for _, src := range inputs {
		enc, err := GzipCodec{}.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, enc)
	}
	for i, src := range inputs {
		var want bytes.Buffer
		w := gzip.NewWriter(&want)
		w.Write(src)
		w.Close()
		if !bytes.Equal(streams[i], want.Bytes()) {
			t.Errorf("input %d: stream differs from a fresh gzip.Writer's", i)
		}
	}
}
