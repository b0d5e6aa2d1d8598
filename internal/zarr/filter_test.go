package zarr

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestShuffleLayout pins the on-disk form of the byte-shuffle filter:
// the ".zarray" entry, and byte b of element i at payload[b*n+i] inside
// the gzip stream. A raw array carries no filter and stays plain.
func TestShuffleLayout(t *testing.T) {
	in := []float64{1.5, -2, 1e300}
	store := NewMemStore()
	a, err := Create(store, "x", []int{3}, []int{4}, Float64, GzipCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFloat64(in); err != nil {
		t.Fatal(err)
	}
	meta, _ := store.Get("x/.zarray")
	const want = `{"zarr_format":2,"shape":[3],"chunks":[4],"dtype":"\u003cf8","compressor":"gzip","fill_value":0,"order":"C","filters":[{"id":"shuffle","elementsize":8}]}`
	if string(meta) != want {
		t.Errorf(".zarray =\n%s\nwant\n%s", meta, want)
	}
	raw, _ := store.Get("x/0")
	payload, err := GzipCodec{}.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 4*8) // chunk extent 4: the last element is fill
	for i, v := range in {
		binary.LittleEndian.PutUint64(plain[i*8:], math.Float64bits(v))
	}
	if !bytes.Equal(payload, transpose(plain, 8)) {
		t.Errorf("shuffled payload = %x, want %x", payload, transpose(plain, 8))
	}

	b, err := Create(store, "r", []int{3}, []int{4}, Float64, RawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFloat64(in); err != nil {
		t.Fatal(err)
	}
	if meta, _ := store.Get("r/.zarray"); strings.Contains(string(meta), "filters") {
		t.Errorf("raw array has a filter: %s", meta)
	}
	if got, _ := store.Get("r/0"); !bytes.Equal(got, plain) {
		t.Errorf("raw payload = %x, want %x", got, plain)
	}
}

// transpose is the reference shuffle: a second buffer, one byte at a time.
func transpose(plain []byte, size int) []byte {
	n := len(plain) / size
	out := make([]byte, len(plain))
	for i := 0; i < n; i++ {
		for b := 0; b < size; b++ {
			out[b*n+i] = plain[i*size+b]
		}
	}
	return out
}

func TestOpenRejectsBadMetadata(t *testing.T) {
	const head = `{"zarr_format":2,"dtype":"<f8","compressor":"gzip","fill_value":0,"order":"C",`
	for name, doc := range map[string]string{
		"unknown filter":       head + `"shape":[4],"chunks":[4],"filters":[{"id":"delta","elementsize":8}]}`,
		"elementsize mismatch": head + `"shape":[4],"chunks":[4],"filters":[{"id":"shuffle","elementsize":4}]}`,
		"two filters":          head + `"shape":[4],"chunks":[4],"filters":[{"id":"shuffle","elementsize":8},{"id":"shuffle","elementsize":8}]}`,
		"zero chunk":           head + `"shape":[4],"chunks":[0]}`,
		"negative shape":       head + `"shape":[-4],"chunks":[4]}`,
		"rank zero":            head + `"shape":[],"chunks":[]}`,
		"rank mismatch":        head + `"shape":[4,4],"chunks":[4]}`,
		"size overflow":        head + `"shape":[4611686018427387904,4],"chunks":[1,1]}`,
		"chunk overflow":       head + `"shape":[4,4],"chunks":[4611686018427387904,4]}`,
	} {
		store := NewMemStore()
		if err := store.Set("x/.zarray", []byte(doc)); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(store, "x"); err == nil {
			t.Errorf("%s: Open accepted %s", name, doc)
		}
	}
}

// TestInflatedChunkRejected: a chunk whose gzip stream inflates to more
// than one chunk is an error, and is not read to its end to find out.
func TestInflatedChunkRejected(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "x", []int{4}, []int{4}, Float64, GzipCodec{})
	if err != nil {
		t.Fatal(err)
	}
	bomb, err := GzipCodec{}.Encode(make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Set("x/0", bomb); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadFloat64(); err == nil {
		t.Error("oversized chunk must surface an error")
	}
	if got, err := (GzipCodec{}).decodeUpTo(bomb, 33); err != nil || len(got) != 33 {
		t.Errorf("decodeUpTo(33) = %d bytes, %v", len(got), err)
	}
}
