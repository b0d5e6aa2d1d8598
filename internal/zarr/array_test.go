package zarr

import (
	"errors"
	"math"
	"strings"
	"testing"
)

var allDTypes = []DType{Float64, Float32, Int64, Int32}

func TestCreateOpenRoundTrip1D(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "m/loss", []int{10}, []int{4}, Float64, GzipCodec{})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := a.WriteFloat64(in); err != nil {
		t.Fatal(err)
	}
	b, err := Open(store, "m/loss")
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.ReadFloat64()
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestRoundTrip2D(t *testing.T) {
	for _, codec := range []Codec{RawCodec{}, GzipCodec{}} { // plain and shuffled
		for _, dt := range allDTypes {
			store := NewMemStore()
			a, err := Create(store, "grid", []int{5, 7}, []int{2, 3}, dt, codec)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]float64, 35)
			for i := range in {
				in[i] = float64(i) * 3
			}
			if err := a.WriteFloat64(in); err != nil {
				t.Fatal(err)
			}
			b, err := Open(store, "grid")
			if err != nil {
				t.Fatal(err)
			}
			out, err := b.ReadFloat64()
			if err != nil {
				t.Fatal(err)
			}
			for i := range in {
				if in[i] != out[i] {
					t.Fatalf("%s %s: 2D mismatch at %d: %v != %v", codec.ID(), dt, i, out[i], in[i])
				}
			}
		}
	}
}

func TestRoundTrip3D(t *testing.T) {
	store := NewMemStore()
	shape := []int{3, 4, 5}
	a, err := Create(store, "cube", shape, []int{2, 3, 2}, Float32, GzipCodec{})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 60)
	for i := range in {
		in[i] = float64(i) / 4 // exactly representable in float32
	}
	if err := a.WriteFloat64(in); err != nil {
		t.Fatal(err)
	}
	out, err := a.ReadFloat64()
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("3D mismatch at %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestDTypes(t *testing.T) {
	for _, dt := range []DType{Float64, Float32, Int64, Int32} {
		store := NewMemStore()
		a, err := Create(store, "x", []int{6}, []int{4}, dt, RawCodec{})
		if err != nil {
			t.Fatal(err)
		}
		in := []float64{1, 2, 3, -4, 5, 100}
		if err := a.WriteFloat64(in); err != nil {
			t.Fatal(err)
		}
		out, err := a.ReadFloat64()
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if in[i] != out[i] {
				t.Errorf("dtype %s: out[%d] = %v, want %v", dt, i, out[i], in[i])
			}
		}
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "x", []int{8}, []int{4}, Float64, GzipCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFloat64([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := store.Set("x/0", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadFloat64(); err == nil {
		t.Fatal("corrupt chunk must surface an error")
	}
}

func TestTruncatedRawChunkDetected(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "x", []int{4}, []int{4}, Float64, RawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFloat64([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	raw, _ := store.Get("x/0")
	if err := store.Set("x/0", raw[:len(raw)-3]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadFloat64(); err == nil {
		t.Fatal("truncated chunk must surface an error")
	}
}

func TestMissingChunkIsFill(t *testing.T) {
	store := NewMemStore()
	a, err := Create(store, "x", []int{8}, []int{4}, Float64, RawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	// Write both chunks, then drop chunk 0 from the store.
	if err := a.WriteFloat64([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	delete(store.data, "x/0")
	out, err := a.ReadFloat64()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out[i] != 0 {
			t.Errorf("missing chunk should read as fill value, got %v", out[i])
		}
	}
	if out[5] != 6 {
		t.Errorf("present chunk corrupted: %v", out[5])
	}
}

func TestOpenMissingArray(t *testing.T) {
	if _, err := Open(NewMemStore(), "nope"); err == nil {
		t.Fatal("opening a missing array must fail")
	}
}

func TestCreateValidation(t *testing.T) {
	store := NewMemStore()
	if _, err := Create(store, "a", []int{4}, []int{4, 4}, Float64, nil); err == nil {
		t.Error("rank mismatch must fail")
	}
	if _, err := Create(store, "b", []int{4}, []int{0}, Float64, nil); err == nil {
		t.Error("zero chunk must fail")
	}
	if _, err := Create(store, "c", []int{4}, []int{2}, DType("<c16"), nil); err == nil {
		t.Error("bad dtype must fail")
	}
}

func TestGzipSmallerThanRawForSmoothData(t *testing.T) {
	smooth := make([]float64, 4096)
	for i := range smooth {
		smooth[i] = math.Floor(float64(i) / 100)
	}
	rawStore, gzStore := NewMemStore(), NewMemStore()
	ra, _ := Create(rawStore, "x", []int{4096}, []int{1024}, Float64, RawCodec{})
	ga, _ := Create(gzStore, "x", []int{4096}, []int{1024}, Float64, GzipCodec{})
	if err := ra.WriteFloat64(smooth); err != nil {
		t.Fatal(err)
	}
	if err := ga.WriteFloat64(smooth); err != nil {
		t.Fatal(err)
	}
	if gzStore.TotalBytes() >= rawStore.TotalBytes() {
		t.Errorf("gzip (%d B) should beat raw (%d B) on smooth data",
			gzStore.TotalBytes(), rawStore.TotalBytes())
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	v := []byte{1, 2, 3}
	if err := s.Set("k", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("MemStore must copy values on Set")
	}
	got[1] = 99
	got2, _ := s.Get("k")
	if got2[1] != 2 {
		t.Error("MemStore must copy values on Get")
	}
}

func TestMissingKeyWrapsErrNotExist(t *testing.T) {
	if _, err := NewMemStore().Get("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("want an error wrapping ErrNotExist, got %v", err)
	}
}

// failingStore fails every chunk Get with an error whose text happens
// to say "does not exist".
type failingStore struct{ Store }

func (s failingStore) Get(key string) ([]byte, error) {
	if strings.HasSuffix(key, "/"+metaKey) {
		return s.Store.Get(key)
	}
	return nil, errors.New("bucket does not exist")
}

// TestGetFailureIsNotAbsence: only ErrNotExist means "no such key"; any
// other failure must reach the caller and not read as fill values or no
// attributes.
func TestGetFailureIsNotAbsence(t *testing.T) {
	mem := NewMemStore()
	a, err := Create(mem, "x", []int{6}, []int{4}, Float64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFloat64([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	b, err := Open(failingStore{mem}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := b.ReadFloat64(); err == nil {
		t.Errorf("ReadFloat64 over a failing store returned %v", out)
	}
	if attrs, err := b.Attrs(); err == nil {
		t.Errorf("Attrs over a failing store returned %v", attrs)
	}
}
