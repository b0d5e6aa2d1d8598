package zarr

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
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

// GzipCodec compresses chunks with gzip at the default level.
type GzipCodec struct{}

// ID implements Codec.
func (GzipCodec) ID() string { return "gzip" }

// freeDeflaters is how many deflate states the package keeps between
// encodes: more than the callers that compress at once on the hosts it
// runs on, so an encode finds one ready.
const freeDeflaters = 4

// deflaters keeps gzip writers between Encode calls. A fresh deflate
// state is about 0.6 MB, more than a training run's whole Zarr output;
// a sync.Pool would drop the kept ones at every GC, a free list keeps
// them.
var deflaters = make(freeList[*deflater], freeDeflaters)

// deflater is a gzip writer and the buffer it writes into.
type deflater struct {
	w   *gzip.Writer
	out bytes.Buffer
}

// freeList holds up to its capacity of values between uses: get
// returns a kept one or a fresh one, put keeps v or, when the list is
// full, drops it. Unlike a sync.Pool's, what it holds survives a GC.
type freeList[T any] chan T

func (l freeList[T]) get(fresh func() T) T {
	select {
	case v := <-l:
		return v
	default:
		return fresh()
	}
}

func (l freeList[T]) put(v T) {
	select {
	case l <- v:
	default:
	}
}

// maxKeptBuffer is the largest scratch buffer a free list keeps; a
// larger one, grown for an unusually large chunk, goes to the GC.
const maxKeptBuffer = 1 << 20

// Encode implements Codec. The stream it returns is the caller's own.
func (GzipCodec) Encode(src []byte) ([]byte, error) {
	d := deflaters.get(func() *deflater { return &deflater{w: gzip.NewWriter(nil)} })
	d.out.Reset()
	d.w.Reset(&d.out)
	_, err := d.w.Write(src)
	if err == nil {
		err = d.w.Close()
	}
	var enc []byte
	if err == nil {
		enc = bytes.Clone(d.out.Bytes())
	}
	if d.out.Cap() > maxKeptBuffer {
		d.out = bytes.Buffer{}
	}
	deflaters.put(d)
	return enc, err
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
