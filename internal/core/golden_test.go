package core

import (
	"archive/zip"
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Output pin. testdata/run_golden.txt holds the SHA-256 of every file a
// fixed run leaves under each metric storage, captured from the commit
// before metric series were stored as columns: the metrics.zarr archive
// and each of its members, metrics.nc, metrics_inline.json, and the
// prov.json each storage writes. The run has a two-GPU collector and a
// loss series longer than one 4096-point chunk, so the archive holds a
// full chunk, an edge chunk and single-chunk series.

// goldenOutputs runs the pinned workload under storage and returns each
// output file's bytes by name. prov.json records the output directory,
// which is spelled DIR so that the bytes do not depend on where the
// test runs.
func goldenOutputs(t *testing.T, storage MetricStorage) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	exp := NewExperiment("golden", WithDir(dir), WithUser("pin"))
	r := exp.StartRun("pinned", WithStorage(storage),
		WithClock(NewSimClock(time.Date(2025, 6, 1, 9, 0, 0, 123456789, time.UTC), 250*time.Millisecond)))
	if err := r.LogParam("learning_rate", 3e-4); err != nil {
		t.Fatal(err)
	}
	r.RegisterCollector(NewGPUFleetCollector(2, 11, telemetry.ConstantLoad(0.8)))
	step := int64(0)
	for epoch := 0; epoch < 2; epoch++ {
		if err := r.StartEpoch(metrics.Training, epoch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2100; i++ {
			loss := 2/math.Sqrt(float64(step+1)) + 1e-3*float64(step%7)
			if err := r.LogMetric("loss", metrics.Training, step, loss); err != nil {
				t.Fatal(err)
			}
			if step%8 == 0 {
				if err := r.LogMetric("accuracy", metrics.Training, step, 1-loss/3); err != nil {
					t.Fatal(err)
				}
				if err := r.CollectOnce(step); err != nil {
					t.Fatal(err)
				}
			}
			step++
		}
		if err := r.EndEpoch(metrics.Training); err != nil {
			t.Fatal(err)
		}
		if err := r.LogMetric("val_loss", metrics.Validation, int64(epoch), 2.1/math.Sqrt(float64(step))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.LogModel("model", 1_000_000, 4<<20); err != nil {
		t.Fatal(err)
	}
	res, err := r.End()
	if err != nil {
		t.Fatal(err)
	}
	prefix := storage.String() + "/"
	out := map[string][]byte{
		prefix + "prov.json": bytes.ReplaceAll(res.ProvJSON, []byte(dir), []byte("DIR")),
	}
	for _, path := range res.MetricPaths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[prefix+filepath.Base(path)] = b
		if filepath.Base(path) != "metrics.zarr" {
			continue
		}
		zr, err := zip.NewReader(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range zr.File {
			rc, err := f.Open()
			if err != nil {
				t.Fatal(err)
			}
			m, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatal(err)
			}
			out[prefix+"metrics.zarr:"+f.Name] = m
		}
	}
	return out
}

func TestRunOutputsGolden(t *testing.T) {
	want := loadRunGolden(t)
	got := map[string]string{}
	for _, storage := range []MetricStorage{StorageZarr, StorageNetCDF, StorageInline} {
		for name, b := range goldenOutputs(t, storage) {
			sum := sha256.Sum256(b)
			got[name] = hex.EncodeToString(sum[:])
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		lines = append(lines, name+" "+got[name])
		if want[name] != got[name] {
			t.Errorf("%s: sha256 %s, golden %q", name, got[name], want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden output not written", name)
		}
	}
	for _, name := range []string{"zarr/metrics.zarr", "zarr/metrics.zarr:TRAINING/loss/value/1", "netcdf/metrics.nc", "inline-json/metrics_inline.json"} {
		if _, ok := got[name]; !ok {
			t.Errorf("the run wrote no %s", name)
		}
	}
	if t.Failed() {
		t.Logf("outputs now:\n%s", strings.Join(lines, "\n"))
	}
}

func loadRunGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/run_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
