package zarr

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// DType identifies an element type, using NumPy-style codes.
type DType string

// Supported element types (little-endian).
const (
	Float64 DType = "<f8"
	Float32 DType = "<f4"
	Int64   DType = "<i8"
	Int32   DType = "<i4"
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case Float64, Int64:
		return 8
	case Float32, Int32:
		return 4
	}
	return 0
}

// Valid reports whether d is a supported dtype.
func (d DType) Valid() bool { return d.Size() != 0 }

// Filter is one entry of the ".zarray" filters list. The only filter
// this package knows is the Zarr v2 byte shuffle.
type Filter struct {
	ID          string `json:"id"`
	ElementSize int    `json:"elementsize"`
}

const shuffleID = "shuffle"

// Meta is the ".zarray" metadata document. It is the one thing that
// decides how a chunk's bytes are laid out: Filters holds the byte
// shuffle for an array Create made with a compressing codec and is
// absent (no "filters" key) for a raw array and for every array written
// before the filter existed, which is read unshuffled.
type Meta struct {
	ZarrFormat int      `json:"zarr_format"`
	Shape      []int    `json:"shape"`
	Chunks     []int    `json:"chunks"`
	DType      DType    `json:"dtype"`
	Compressor string   `json:"compressor"`
	FillValue  float64  `json:"fill_value"`
	Order      string   `json:"order"`
	Filters    []Filter `json:"filters,omitempty"`
}

// maxElems bounds an array's and a chunk's element count so that byte
// sizes computed from metadata cannot overflow an int.
const maxElems = math.MaxInt / 8

// shuffled reports whether chunks are byte-shuffled: validate admits no
// other filter.
func (m *Meta) shuffled() bool { return len(m.Filters) != 0 }

// validate checks what both Create and Open need to hold before any
// size is computed from the metadata.
func (m *Meta) validate() error {
	if len(m.Shape) == 0 || len(m.Shape) != len(m.Chunks) {
		return fmt.Errorf("zarr: shape %v and chunks %v must be same non-zero rank", m.Shape, m.Chunks)
	}
	elems, chunkElems := 1, 1
	for i := range m.Shape {
		if m.Shape[i] < 0 || m.Chunks[i] <= 0 {
			return fmt.Errorf("zarr: invalid shape %v / chunks %v", m.Shape, m.Chunks)
		}
		if m.Chunks[i] > maxElems/chunkElems || (elems > 0 && m.Shape[i] > maxElems/elems) {
			return fmt.Errorf("zarr: shape %v / chunks %v too large", m.Shape, m.Chunks)
		}
		elems *= m.Shape[i]
		chunkElems *= m.Chunks[i]
	}
	if !m.DType.Valid() {
		return fmt.Errorf("zarr: unsupported dtype %q", m.DType)
	}
	switch {
	case len(m.Filters) == 0:
		return nil
	case len(m.Filters) > 1 || m.Filters[0].ID != shuffleID:
		return fmt.Errorf("zarr: unsupported filters %+v", m.Filters)
	case m.Filters[0].ElementSize != m.DType.Size():
		return fmt.Errorf("zarr: shuffle elementsize %d does not match dtype %q", m.Filters[0].ElementSize, m.DType)
	}
	return nil
}

// Array is a chunked N-dimensional array bound to a store path. Its
// metadata is fixed when Create writes it or Open reads it; WriteFloat64
// stores every chunk of the array in one call.
type Array struct {
	store Store
	path  string // key prefix, e.g. "metrics/loss"
	codec Codec
	meta  Meta
}

const (
	metaKey  = ".zarray"
	attrsKey = ".zattrs"
)

// Create initializes a new array at path within store. Shape and chunks
// must have equal rank; every chunk extent must be positive. An array
// with a compressing codec gets the byte-shuffle filter: deflate finds
// little in eight-byte elements whose high bytes repeat eight apart and
// a lot in the same bytes laid out plane by plane.
func Create(store Store, path string, shape, chunks []int, dtype DType, codec Codec) (*Array, error) {
	if codec == nil {
		codec = GzipCodec{}
	}
	a := &Array{
		store: store,
		path:  strings.TrimSuffix(path, "/"),
		meta: Meta{
			ZarrFormat: 2,
			Shape:      append([]int(nil), shape...),
			Chunks:     append([]int(nil), chunks...),
			DType:      dtype,
			Compressor: codec.ID(),
			Order:      "C",
		},
		codec: codec,
	}
	if codec.ID() != (RawCodec{}).ID() {
		a.meta.Filters = []Filter{{ID: shuffleID, ElementSize: dtype.Size()}}
	}
	if err := a.meta.validate(); err != nil {
		return nil, err
	}
	if err := a.writeMeta(); err != nil {
		return nil, err
	}
	return a, nil
}

// Open loads an existing array from store.
func Open(store Store, path string) (*Array, error) {
	path = strings.TrimSuffix(path, "/")
	raw, err := store.Get(path + "/" + metaKey)
	if err != nil {
		return nil, fmt.Errorf("zarr: open %q: %w", path, err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("zarr: corrupt metadata at %q: %w", path, err)
	}
	if meta.ZarrFormat != 2 {
		return nil, fmt.Errorf("zarr: unsupported format %d", meta.ZarrFormat)
	}
	if err := meta.validate(); err != nil {
		return nil, fmt.Errorf("zarr: open %q: %w", path, err)
	}
	codec, err := codecByID(meta.Compressor)
	if err != nil {
		return nil, err
	}
	return &Array{store: store, path: path, meta: meta, codec: codec}, nil
}

func (a *Array) writeMeta() error {
	raw, err := json.Marshal(a.meta)
	if err != nil {
		return err
	}
	return a.store.Set(a.path+"/"+metaKey, raw)
}

// SetAttrs writes the array's user attributes (".zattrs" document).
// Values must be JSON-encodable.
func (a *Array) SetAttrs(attrs map[string]interface{}) error {
	raw, err := json.Marshal(attrs)
	if err != nil {
		return fmt.Errorf("zarr: encoding attrs: %w", err)
	}
	return a.store.Set(a.path+"/"+attrsKey, raw)
}

// Attrs reads the array's user attributes; a missing ".zattrs" yields
// an empty map.
func (a *Array) Attrs() (map[string]interface{}, error) {
	raw, err := a.store.Get(a.path + "/" + attrsKey)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return map[string]interface{}{}, nil
		}
		return nil, err
	}
	var attrs map[string]interface{}
	if err := json.Unmarshal(raw, &attrs); err != nil {
		return nil, fmt.Errorf("zarr: corrupt .zattrs: %w", err)
	}
	return attrs, nil
}

// elems returns the total number of elements.
func (a *Array) elems() int {
	n := 1
	for _, s := range a.meta.Shape {
		n *= s
	}
	return n
}

// chunkKey renders the store key of the chunk with the given grid coords.
func (a *Array) chunkKey(coords []int) string {
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = strconv.Itoa(c)
	}
	return a.path + "/" + strings.Join(parts, ".")
}

// gridDims returns the number of chunks along each dimension.
func (a *Array) gridDims() []int {
	g := make([]int, len(a.meta.Shape))
	for i := range g {
		g[i] = (a.meta.Shape[i] + a.meta.Chunks[i] - 1) / a.meta.Chunks[i]
	}
	return g
}

// chunkElems returns the number of elements in one (full) chunk.
func (a *Array) chunkElems() int {
	n := 1
	for _, c := range a.meta.Chunks {
		n *= c
	}
	return n
}

// WriteFloat64 writes the full array contents from a flat C-order slice.
func (a *Array) WriteFloat64(data []float64) error {
	if len(data) != a.elems() {
		return fmt.Errorf("zarr: data length %d != array size %d", len(data), a.elems())
	}
	grid := a.gridDims()
	coords := make([]int, len(grid))
	for {
		if err := a.writeChunk(coords, data); err != nil {
			return err
		}
		if !incCoords(coords, grid) {
			break
		}
	}
	return nil
}

// ReadFloat64 reads the full array into a flat C-order slice.
func (a *Array) ReadFloat64() ([]float64, error) {
	out := make([]float64, a.elems())
	for i := range out {
		out[i] = a.meta.FillValue
	}
	if len(out) == 0 {
		return out, nil
	}
	grid := a.gridDims()
	coords := make([]int, len(grid))
	for {
		if err := a.readChunk(coords, out); err != nil {
			return nil, err
		}
		if !incCoords(coords, grid) {
			break
		}
	}
	return out, nil
}

// incCoords advances C-order grid coordinates; false when exhausted.
func incCoords(coords, dims []int) bool {
	for i := len(coords) - 1; i >= 0; i-- {
		coords[i]++
		if coords[i] < dims[i] {
			return true
		}
		coords[i] = 0
	}
	return false
}

// chunkRegion computes, for a chunk at coords, the per-dim [start, extent).
func (a *Array) chunkRegion(coords []int) (start, extent []int) {
	start = make([]int, len(coords))
	extent = make([]int, len(coords))
	for i, c := range coords {
		start[i] = c * a.meta.Chunks[i]
		e := a.meta.Chunks[i]
		if start[i]+e > a.meta.Shape[i] {
			e = a.meta.Shape[i] - start[i]
		}
		extent[i] = e
	}
	return start, extent
}

// writeChunk encodes the sub-block of data at chunk coords and stores it.
// Chunks are always stored at full chunk shape, an edge chunk padded with
// the fill value, as Zarr v2 lays them out. A full chunk of a
// one-dimensional array is one run of data and is encoded in place.
func (a *Array) writeChunk(coords []int, data []float64) error {
	start, extent := a.chunkRegion(coords)
	if len(extent) == 1 && extent[0] == a.meta.Chunks[0] {
		return a.putChunk(a.chunkKey(coords), data[start[0]:start[0]+extent[0]])
	}
	buf := make([]float64, a.chunkElems())
	for i := range buf {
		buf[i] = a.meta.FillValue
	}
	copyRegion(buf, a.meta.Chunks, data, a.meta.Shape, start, extent, true)
	return a.putChunk(a.chunkKey(coords), buf)
}

// payloads keeps chunk payload buffers between putChunk calls, as
// deflaters keeps deflate states.
var payloads = make(freeList[*[]byte], freeDeflaters)

// putChunk encodes one full chunk of elements and stores it under key.
// The payload is scratch: codecs and stores copy what they keep.
func (a *Array) putChunk(key string, buf []float64) error {
	p := payloads.get(func() *[]byte { return new([]byte) })
	payload, err := encodeElems((*p)[:0], buf, a.meta.DType, a.meta.shuffled())
	var enc []byte
	if err == nil {
		enc, err = a.codec.Encode(payload)
	}
	if cap(payload) <= maxKeptBuffer {
		*p = payload
		payloads.put(p)
	}
	if err != nil {
		return err
	}
	return a.store.Set(key, enc)
}

// getChunk loads and decodes the full chunk stored under key. The
// decompressed payload must be exactly one chunk long; a stream that
// inflates past that is cut off there, not read to its end.
func (a *Array) getChunk(key string) ([]float64, error) {
	raw, err := a.store.Get(key)
	if err != nil {
		return nil, err
	}
	n := a.chunkElems()
	var payload []byte
	if gz, ok := a.codec.(GzipCodec); ok {
		payload, err = gz.decodeUpTo(raw, n*a.meta.DType.Size()+1)
	} else {
		payload, err = a.codec.Decode(raw)
	}
	if err != nil {
		return nil, err
	}
	return decodeElems(payload, a.meta.DType, n, a.meta.shuffled())
}

// readChunk loads the chunk at coords into the destination array slice.
func (a *Array) readChunk(coords []int, dst []float64) error {
	buf, err := a.getChunk(a.chunkKey(coords))
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil // missing chunk = fill value
		}
		return fmt.Errorf("zarr: chunk %v: %w", coords, err)
	}
	start, extent := a.chunkRegion(coords)
	copyRegion(buf, a.meta.Chunks, dst, a.meta.Shape, start, extent, false)
	return nil
}

// copyRegion copies a rectangular region between a chunk buffer (chunk
// shape) and the full array buffer (array shape). When toChunk is true
// data flows array -> chunk, else chunk -> array.
func copyRegion(chunk []float64, chunkShape []int, array []float64, arrayShape []int, start, extent []int, toChunk bool) {
	rank := len(arrayShape)
	idx := make([]int, rank)
	for {
		// Compute flat offsets for current idx.
		aOff, cOff := 0, 0
		for d := 0; d < rank; d++ {
			aOff = aOff*arrayShape[d] + start[d] + idx[d]
			cOff = cOff*chunkShape[d] + idx[d]
		}
		// Copy the innermost run in one go.
		run := extent[rank-1]
		if toChunk {
			copy(chunk[cOff:cOff+run], array[aOff:aOff+run])
		} else {
			copy(array[aOff:aOff+run], chunk[cOff:cOff+run])
		}
		// Advance all dims except the innermost (covered by the run).
		d := rank - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < extent[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
}

// A chunk payload holds n elements of size bytes each, little-endian.
// Plain, byte b of element i sits at i*size+b; byte-shuffled (the Zarr
// v2 shuffle filter) it sits at b*n+i, so that deflate sees each byte
// plane as one run. strides gives the step between the bytes of one
// element and between elements, which lets one loop write either layout
// straight into the payload with no second buffer.
func strides(n, size int, shuffle bool) (byteStep, elemStep int) {
	if shuffle {
		return n, 1
	}
	return 1, size
}

func putBytes(out []byte, at, step, size int, v uint64) {
	for b := 0; b < size; b++ {
		out[at+b*step] = byte(v >> (8 * b))
	}
}

func getBytes(raw []byte, at, step, size int) uint64 {
	var v uint64
	for b := 0; b < size; b++ {
		v |= uint64(raw[at+b*step]) << (8 * b)
	}
	return v
}

// encodeElems converts float64 elements to the on-disk form, written
// over dst's storage when it is large enough.
func encodeElems(dst []byte, data []float64, dt DType, shuffle bool) ([]byte, error) {
	size := dt.Size()
	out := slices.Grow(dst[:0], len(data)*size)[:len(data)*size]
	byteStep, elemStep := strides(len(data), size, shuffle)
	switch dt {
	case Float64:
		for i, v := range data {
			putBytes(out, i*elemStep, byteStep, 8, math.Float64bits(v))
		}
	case Float32:
		for i, v := range data {
			putBytes(out, i*elemStep, byteStep, 4, uint64(math.Float32bits(float32(v))))
		}
	case Int64:
		for i, v := range data {
			putBytes(out, i*elemStep, byteStep, 8, uint64(int64(v)))
		}
	case Int32:
		for i, v := range data {
			putBytes(out, i*elemStep, byteStep, 4, uint64(uint32(int32(v))))
		}
	default:
		return nil, fmt.Errorf("zarr: unsupported dtype %q", dt)
	}
	return out, nil
}

// decodeElems converts on-disk bytes back to float64 elements.
func decodeElems(raw []byte, dt DType, want int, shuffle bool) ([]float64, error) {
	size := dt.Size()
	if len(raw) != want*size {
		return nil, fmt.Errorf("zarr: chunk payload %d bytes, want %d", len(raw), want*size)
	}
	out := make([]float64, want)
	byteStep, elemStep := strides(want, size, shuffle)
	switch dt {
	case Float64:
		for i := range out {
			out[i] = math.Float64frombits(getBytes(raw, i*elemStep, byteStep, 8))
		}
	case Float32:
		for i := range out {
			out[i] = float64(math.Float32frombits(uint32(getBytes(raw, i*elemStep, byteStep, 4))))
		}
	case Int64:
		for i := range out {
			out[i] = float64(int64(getBytes(raw, i*elemStep, byteStep, 8)))
		}
	case Int32:
		for i := range out {
			out[i] = float64(int32(getBytes(raw, i*elemStep, byteStep, 4)))
		}
	default:
		return nil, fmt.Errorf("zarr: unsupported dtype %q", dt)
	}
	return out, nil
}
