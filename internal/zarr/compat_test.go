package zarr

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
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

// loadLegacyStore reads the committed directory store into memory, one
// key per file.
func loadLegacyStore(t *testing.T) *MemStore {
	t.Helper()
	root := filepath.Join("testdata", "legacy")
	store := NewMemStore()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		v, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		return store.Set(filepath.ToSlash(rel), v)
	})
	if err != nil || len(store.data) == 0 {
		t.Fatalf("testdata/legacy: %d keys, %v", len(store.data), err)
	}
	return store
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

// TestLegacyStoreReads: stored metadata without "filters" selects the
// plain layout.
func TestLegacyStoreReads(t *testing.T) {
	store := loadLegacyStore(t)
	for path, want := range legacyColumns() {
		a, err := Open(store, path)
		if err != nil {
			t.Fatal(err)
		}
		if f := a.meta.Filters; f != nil {
			t.Fatalf("%s: legacy array opened with filters %v", path, f)
		}
		requireColumn(t, a, path, want)
	}
}
