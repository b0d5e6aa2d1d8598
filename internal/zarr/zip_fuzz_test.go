package zarr_test

import (
	"encoding/binary"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/zarr"
)

// endArchive is the metrics.zarr a small Zarr run's End writes.
func endArchive(f *testing.F) []byte {
	f.Helper()
	exp := core.NewExperiment("fuzz", core.WithDir(f.TempDir()))
	run := exp.StartRun("r", core.WithStorage(core.StorageZarr),
		core.WithClock(core.NewSimClock(time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC), time.Second)))
	for step := int64(0); step < 6; step++ {
		if err := run.LogMetric("loss", metrics.Training, step, 1/float64(step+1)); err != nil {
			f.Fatal(err)
		}
	}
	if err := run.LogMetric("val/acc", metrics.Validation, 0, 0.5); err != nil {
		f.Fatal(err)
	}
	res, err := run.End()
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(res.MetricPaths[0])
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocSlack absorbs MemStats' span-sized accounting of small objects.
const allocSlack = 64 << 10

// FuzzOpenZipStore writes arbitrary bytes as metrics.zarr and reads them
// the way metrics.LoadZarrSeries does: OpenZip, List, then Open and
// ReadFloat64 of every array listed. Any of those may fail; none may
// panic, and no Get allocates more than the file holds, whatever sizes
// the archive's headers claim. Chunk decoding under ReadFloat64 has its
// own bound (FuzzChunkDecode); as there, only arrays small enough to
// keep the fuzzer's memory flat are read.
func FuzzOpenZipStore(f *testing.F) {
	archive := endArchive(f)
	f.Add(archive)
	f.Add(archive[:len(archive)-1])
	flipped := append([]byte(nil), archive...)
	// The end record (the last 22 bytes) holds the central directory's
	// offset 16 bytes in; the first member's CRC-32 is 16 bytes into its
	// entry there.
	dir := binary.LittleEndian.Uint32(flipped[len(flipped)-22+16:])
	flipped[dir+16] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})

	file := filepath.Join(f.TempDir(), "metrics.zarr")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(file, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := zarr.OpenZip(file)
		if err != nil {
			return
		}
		keys, err := store.List("")
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		for _, k := range keys {
			before := totalAlloc()
			v, err := store.Get(k)
			if grew := totalAlloc() - before; grew > uint64(len(raw))+allocSlack {
				t.Fatalf("Get(%q) allocated %d bytes from a %d-byte file", k, grew, len(raw))
			}
			if err == nil && len(v) > len(raw) {
				t.Fatalf("Get(%q) returned %d bytes from a %d-byte file", k, len(v), len(raw))
			}
			if path.Base(k) != ".zarray" {
				continue
			}
			a, err := zarr.Open(store, strings.TrimSuffix(k, "/.zarray"))
			if err != nil || a.Len() > 1<<16 {
				continue
			}
			if out, err := a.ReadFloat64(); err == nil && len(out) != a.Len() {
				t.Fatalf("%s: ReadFloat64 returned %d elements of %d", k, len(out), a.Len())
			}
		}
	})
}
