package zarr

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"sync"
)

// Codec compresses and decompresses chunk payloads.
type Codec interface {
	// ID is the codec identifier recorded in array metadata.
	ID() string
	// Encode compresses src.
	Encode(src []byte) ([]byte, error)
	// Decode decompresses src.
	Decode(src []byte) ([]byte, error)
}

// RawCodec stores chunks uncompressed.
type RawCodec struct{}

// ID implements Codec.
func (RawCodec) ID() string { return "raw" }

// Encode implements Codec.
func (RawCodec) Encode(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// Decode implements Codec.
func (RawCodec) Decode(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// GzipCodec compresses chunks with gzip at the configured level.
type GzipCodec struct {
	Level int
}

// ID implements Codec.
func (GzipCodec) ID() string { return "gzip" }

// gzipWriterPools recycles gzip writers per compression level; allocating
// a fresh deflate state per chunk dominates small-chunk encode cost.
var gzipWriterPools sync.Map // int -> *sync.Pool

func gzipWriterPool(level int) *sync.Pool {
	if p, ok := gzipWriterPools.Load(level); ok {
		return p.(*sync.Pool)
	}
	p, _ := gzipWriterPools.LoadOrStore(level, &sync.Pool{
		New: func() interface{} {
			w, err := gzip.NewWriterLevel(io.Discard, level)
			if err != nil {
				panic(err) // level validated before pool use
			}
			return w
		},
	})
	return p.(*sync.Pool)
}

// Encode implements Codec.
func (c GzipCodec) Encode(src []byte) ([]byte, error) {
	level := c.Level
	if level == 0 {
		level = gzip.DefaultCompression
	}
	if level < gzip.HuffmanOnly || level > gzip.BestCompression {
		return nil, fmt.Errorf("zarr: invalid gzip level %d", level)
	}
	pool := gzipWriterPool(level)
	w := pool.Get().(*gzip.Writer)
	var buf bytes.Buffer
	w.Reset(&buf)
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	pool.Put(w)
	return buf.Bytes(), nil
}

// Decode implements Codec.
func (c GzipCodec) Decode(src []byte) ([]byte, error) {
	return c.decodeUpTo(src, math.MaxInt)
}

// decodeUpTo inflates at most limit bytes of src, so that a reader who
// knows how long the payload must be allocates no more than that for a
// stream that claims to be longer.
func (GzipCodec) decodeUpTo(src []byte, limit int) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, fmt.Errorf("zarr: corrupt gzip chunk: %w", err)
	}
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, int64(limit)))
	if err != nil {
		return nil, fmt.Errorf("zarr: corrupt gzip chunk: %w", err)
	}
	return out, nil
}

// codecByID resolves the codec named in array metadata.
func codecByID(id string) (Codec, error) {
	switch id {
	case "", "raw":
		return RawCodec{}, nil
	case "gzip":
		return GzipCodec{}, nil
	default:
		return nil, fmt.Errorf("zarr: unknown codec %q", id)
	}
}
