package zarr

import (
	"bytes"
	"math"
	"testing"
)

// FuzzShuffleRoundTrip reads any bytes as a plain chunk payload of
// 4- or 8-byte elements and holds the fused shuffle to the two-buffer
// reference: the shuffled encoding is the transposed plain one, and
// decoding either gives the same elements, bit for bit.
func FuzzShuffleRoundTrip(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, true)
	f.Add([]byte{0, 0, 0x80, 0x7f, 0xff, 0xff, 0xff, 0xff, 0, 0, 0xc0, 0xff}, false)
	f.Fuzz(func(t *testing.T, raw []byte, wide bool) {
		dtypes, size := []DType{Float32, Int32}, 4
		if wide {
			dtypes, size = []DType{Float64, Int64}, 8
		}
		n := len(raw) / size
		raw = raw[:n*size]
		for _, dt := range dtypes {
			elems, err := decodeElems(raw, dt, n, false)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := encodeElems(nil, elems, dt, false)
			if err != nil {
				t.Fatal(err)
			}
			// Every bit pattern of these two survives the trip through
			// float64; a float32 NaN may be quieted, an int64 rounded.
			if (dt == Float64 || dt == Int32) && !bytes.Equal(plain, raw) {
				t.Fatalf("%s: plain round trip changed the bytes: %x -> %x", dt, raw, plain)
			}
			// The shuffled payload is written over a dirty buffer, as
			// putChunk reuses one: every byte must be overwritten.
			dirty := bytes.Repeat([]byte{0xa5}, len(raw)+3)
			shuffled, err := encodeElems(dirty, elems, dt, true)
			if err != nil {
				t.Fatal(err)
			}
			if want := transpose(plain, size); !bytes.Equal(shuffled, want) {
				t.Fatalf("%s: shuffled = %x, want %x", dt, shuffled, want)
			}
			want, err := decodeElems(plain, dt, n, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeElems(shuffled, dt, n, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: element %d: shuffled decodes to %v, plain to %v", dt, i, got[i], want[i])
				}
			}
		}
	})
}

// FuzzChunkDecode opens an array whose metadata and first chunk are
// hostile bytes. Whatever they say — unknown filter, an elementsize the
// dtype contradicts, a payload that is not a whole number of elements
// or inflates to far more than a chunk, extents that are zero, negative
// or overflow — is an error from Open or ReadFloat64, never a panic,
// and nothing is allocated for a chunk beyond the bytes actually there.
// The array's own size is the caller's request, not an attack, so the
// target reads only arrays small enough to keep the fuzzer's memory flat.
func FuzzChunkDecode(f *testing.F) {
	f.Add([]byte(`{"zarr_format":2,"shape":[3],"chunks":[4],"dtype":"<f8","compressor":"raw","fill_value":0,"order":"C"}`),
		make([]byte, 32))
	f.Fuzz(func(t *testing.T, zarray, chunk []byte) {
		store := NewMemStore()
		if err := store.Set("x/.zarray", zarray); err != nil {
			t.Fatal(err)
		}
		if err := store.Set("x/0", chunk); err != nil {
			t.Fatal(err)
		}
		a, err := Open(store, "x")
		if err != nil || a.elems() > 1<<16 {
			return
		}
		out, err := a.ReadFloat64()
		if err == nil && len(out) != a.elems() {
			t.Fatalf("ReadFloat64 returned %d elements of %d", len(out), a.elems())
		}
	})
}
