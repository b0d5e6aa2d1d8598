package zarr

import (
	"archive/zip"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// zipFixture is a store with a shuffled gzip array, a raw one with
// attributes, and a key outside any array.
func zipFixture(t *testing.T) *MemStore {
	t.Helper()
	m := NewMemStore()
	for _, c := range []struct {
		path  string
		codec Codec
	}{{"TRAINING/loss/value", GzipCodec{}}, {"extra/raw", RawCodec{}}} {
		a, err := Create(m, c.path, []int{10}, []int{4}, Float64, c.codec)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.WriteFloat64([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
			t.Fatal(err)
		}
		if err := a.SetAttrs(map[string]interface{}{"metric": c.path}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Set("notes.txt", nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeZipFixture(t *testing.T) (string, *MemStore) {
	t.Helper()
	m := zipFixture(t)
	path := filepath.Join(t.TempDir(), "metrics.zarr")
	if err := WriteZip(path, m); err != nil {
		t.Fatal(err)
	}
	return path, m
}

// TestZipStoreRoundTrip: every key of the MemStore is a member with the
// same bytes, List follows the central directory, and arrays read back
// through the archive; a second WriteZip replaces the file whole.
func TestZipStoreRoundTrip(t *testing.T) {
	path, m := writeZipFixture(t)
	z, err := OpenZip(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"", "TRAINING/", "extra/raw/.z", "nothing"} {
		want, _ := m.List(prefix)
		got, err := z.List(prefix)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("List(%q) = %v, %v; want %v", prefix, got, err, want)
		}
	}
	keys, _ := m.List("")
	for _, k := range keys {
		want, _ := m.Get(k)
		got, err := z.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, err, want)
		}
	}
	for _, p := range []string{"TRAINING/loss/value", "extra/raw"} {
		a, err := Open(z, p)
		if err != nil {
			t.Fatal(err)
		}
		requireColumn(t, a, p, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	}

	small := NewMemStore()
	if err := small.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := WriteZip(path, small); err != nil {
		t.Fatal(err)
	}
	z, err = OpenZip(path)
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := z.List(""); !reflect.DeepEqual(keys, []string{"k"}) {
		t.Fatalf("rewritten archive lists %v", keys)
	}
}

// TestZipStoreRejects: a missing key is ErrNotExist, a write fails and
// changes nothing, and a member whose bytes or CRC were altered, or that
// is deflated, is an error and never data.
func TestZipStoreRejects(t *testing.T) {
	path, _ := writeZipFixture(t)
	z, err := OpenZip(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.Get("TRAINING/loss/value/9"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing key: %v, want ErrNotExist", err)
	}
	if err := z.Set("TRAINING/loss/value/0", []byte("x")); err == nil {
		t.Error("Set succeeded on an archive")
	}
	if _, err := z.Get("TRAINING/loss/value/0"); err != nil {
		t.Errorf("after the refused writes: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	first := zr.File[0]
	off, err := first.DataOffset()
	if err != nil {
		t.Fatal(err)
	}
	// The end record (the last 22 bytes) holds the central directory's
	// offset 16 bytes in; the first member's CRC-32 is 16 bytes into its
	// entry there.
	dirStart := int64(binary.LittleEndian.Uint32(raw[len(raw)-22+16:]))
	for name, at := range map[string]int64{"data byte": off, "central CRC": dirStart + 16} {
		bad := bytes.Clone(raw)
		bad[at] ^= 0xff
		badPath := filepath.Join(t.TempDir(), "bad.zarr")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		bz, err := OpenZip(badPath)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v, err := bz.Get(first.Name); !errors.Is(err, zip.ErrChecksum) {
			t.Errorf("%s flipped: Get = %q, %v; want a checksum error", name, v, err)
		}
	}

	var deflated bytes.Buffer
	zw := zip.NewWriter(&deflated)
	w, err := zw.Create("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	defPath := filepath.Join(t.TempDir(), "deflated.zarr")
	if err := os.WriteFile(defPath, deflated.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	dz, err := OpenZip(defPath)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := dz.Get("k"); err == nil {
		t.Errorf("deflated member read as %q", v)
	}

	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenZip(path); err == nil {
		t.Error("an archive cut short by one byte opened")
	}
}

// TestWriteZipRefusesDirectory: WriteZip fails on a directory in its
// way, naming it, and leaves what the directory holds be.
func TestWriteZipRefusesDirectory(t *testing.T) {
	root := t.TempDir()
	inside := filepath.Join(root, ".zgroup")
	if err := os.WriteFile(inside, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteZip(root, NewMemStore()); err == nil || !strings.Contains(err.Error(), root) {
		t.Errorf("WriteZip over a directory: %v", err)
	}
	if b, err := os.ReadFile(inside); err != nil || string(b) != "{}" {
		t.Errorf("the directory was damaged: %q, %v", b, err)
	}
}
