package zarr

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testdata/legacy is a store written by the last commit before the
// shuffle filter existed: metrics.ZarrSink{ChunkSize: 32} over the
// series below (70 points, so three chunks, and 5 points, one padded
// chunk), plus one "<f4" array made with Create/Append/Flush so that
// all four dtypes are there. No ".zarray" in it has a "filters" key.
var legacyBase = time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)

func legacyColumns() map[string][]float64 {
	cols := map[string][]float64{}
	for i := 0; i < 70; i++ {
		ts := legacyBase.Add(time.Duration(i) * 1500 * time.Millisecond)
		cols["TRAINING/loss/value"] = append(cols["TRAINING/loss/value"], 2/math.Sqrt(float64(i+1))+0.125)
		cols["TRAINING/loss/step"] = append(cols["TRAINING/loss/step"], float64(i*3))
		cols["TRAINING/loss/epoch"] = append(cols["TRAINING/loss/epoch"], float64(i/10))
		cols["TRAINING/loss/tstamp"] = append(cols["TRAINING/loss/tstamp"], float64(ts.UnixNano())/1e9)
	}
	for i := 0; i < 5; i++ {
		ts := legacyBase.Add(time.Duration(i) * time.Minute)
		cols["VALIDATION/val_acc/value"] = append(cols["VALIDATION/val_acc/value"], 0.5+float64(i)/16)
		cols["VALIDATION/val_acc/step"] = append(cols["VALIDATION/val_acc/step"], float64(i))
		cols["VALIDATION/val_acc/epoch"] = append(cols["VALIDATION/val_acc/epoch"], float64(i))
		cols["VALIDATION/val_acc/tstamp"] = append(cols["VALIDATION/val_acc/tstamp"], float64(ts.UnixNano())/1e9)
	}
	for i := 0; i < 10; i++ {
		cols["extra/f32"] = append(cols["extra/f32"], float64(i)*0.25)
	}
	return cols
}

// copyLegacyStore copies the committed store so a test may write to it.
func copyLegacyStore(t *testing.T) *DirStore {
	t.Helper()
	src, err := NewDirStore(filepath.Join("testdata", "legacy"))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := src.List("")
	if err != nil || len(keys) == 0 {
		t.Fatalf("testdata/legacy: %d keys, %v", len(keys), err)
	}
	for _, k := range keys {
		v, err := src.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Set(k, v); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func requireColumn(t *testing.T, a *Array, path string, want []float64) {
	t.Helper()
	got, err := a.ReadFloat64()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", path, i, got[i], want[i])
		}
	}
}

// TestLegacyStoreReadsAndAppends: stored metadata without "filters"
// selects the plain layout, for reading and for what Append and Flush
// write back, and the metadata stays without the key.
func TestLegacyStoreReadsAndAppends(t *testing.T) {
	store := copyLegacyStore(t)
	more := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0}
	for path, want := range legacyColumns() {
		a, err := Open(store, path)
		if err != nil {
			t.Fatal(err)
		}
		if f := a.Meta().Filters; f != nil {
			t.Fatalf("%s: legacy array opened with filters %v", path, f)
		}
		requireColumn(t, a, path, want)

		if err := a.Append(more); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		meta, err := store.Get(path + "/.zarray")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(meta), "filters") {
			t.Errorf("%s: Flush added a filters key: %s", path, meta)
		}
		b, err := Open(store, path)
		if err != nil {
			t.Fatal(err)
		}
		requireColumn(t, b, path, append(append([]float64(nil), want...), more...))
	}
}
