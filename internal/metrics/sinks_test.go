package metrics

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/zarr"
)

// referenceZarrFlush writes the layout ZarrSink.Flush writes, gzipping
// every chunk on its own with no memo.
func referenceZarrFlush(t *testing.T, c *Collection, maxChunk int) *zarr.MemStore {
	t.Helper()
	store := zarr.NewMemStore()
	for _, series := range c.Snapshot() {
		base := sanitize(string(series.Context)) + "/" + sanitize(series.Name)
		n := len(series.Points)
		cols := map[string][]float64{}
		for _, p := range series.Points {
			cols["value"] = append(cols["value"], p.Value)
			cols["step"] = append(cols["step"], float64(p.Step))
			cols["epoch"] = append(cols["epoch"], float64(p.Epoch))
			cols["tstamp"] = append(cols["tstamp"], float64(p.Time.UnixNano())/1e9)
		}
		dtypes := map[string]zarr.DType{"value": zarr.Float64, "step": zarr.Int64, "epoch": zarr.Int32, "tstamp": zarr.Float64}
		for _, col := range []string{"value", "step", "epoch", "tstamp"} {
			arr, err := zarr.Create(store, base+"/"+col, []int{n}, []int{min(maxChunk, n)}, dtypes[col], zarr.GzipCodec{})
			if err != nil {
				t.Fatal(err)
			}
			if err := arr.WriteFloat64(cols[col]); err != nil {
				t.Fatal(err)
			}
			if col == "value" {
				if err := arr.SetAttrs(map[string]interface{}{"metric": series.Name, "context": string(series.Context), "points": n}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return store
}

// TestZarrSinkMatchesPerChunkGzip: compressing each distinct chunk
// payload once writes exactly the keys and bytes that compressing every
// chunk does. The collection shares step, epoch and tstamp columns
// between series, holds two series with equal values and distinct
// ones, and one series spans several chunks, two of them equal.
func TestZarrSinkMatchesPerChunkGzip(t *testing.T) {
	const chunk = 64
	c := NewCollection()
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		p := Point{Step: int64(i), Epoch: i / 50, Time: base.Add(time.Duration(i) * time.Second)}
		p.Value = 2 / math.Sqrt(float64(i+1))
		c.Log("loss", Training, p)
		p.Value = 1 - p.Value/3
		c.Log("accuracy", Training, p)
		p.Value = 12.5
		c.Log("gpu0_mem_gb", Training, p)
		c.Log("gpu1_mem_gb", Training, p)
	}
	for i := 0; i < 37; i++ {
		c.Log("val_loss", Validation, Point{Step: int64(i), Epoch: i, Time: base.Add(time.Duration(i) * time.Minute), Value: float64(i) / 7})
	}
	sink := &ZarrSink{ChunkSize: chunk}
	if _, err := sink.Flush(c); err != nil {
		t.Fatal(err)
	}
	got := sink.Store.(*zarr.MemStore)
	want := referenceZarrFlush(t, c, chunk)
	gotKeys, _ := got.List("")
	wantKeys, _ := want.List("")
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("flush wrote %d keys, reference %d", len(gotKeys), len(wantKeys))
	}
	chunks := 0
	for i, key := range wantKeys {
		if gotKeys[i] != key {
			t.Fatalf("key %d: %q, reference %q", i, gotKeys[i], key)
		}
		g, _ := got.Get(key)
		w, _ := want.Get(key)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %d bytes differ from the reference's %d", key, len(g), len(w))
		}
		if key[len(key)-1] >= '0' && key[len(key)-1] <= '9' {
			chunks++
		}
	}
	// Four 200-point series in chunks of 64 and one of 37 points.
	if want := 4*4*4 + 4; chunks != want {
		t.Errorf("%d chunks, want %d", chunks, want)
	}
}

// TestGzipOnceReusesOnlyEqualPayloads: a payload equal to an earlier one
// gets that stream back; one that differs in a single byte is
// compressed afresh.
func TestGzipOnceReusesOnlyEqualPayloads(t *testing.T) {
	g := &gzipOnce{seen: make(map[string][]byte)}
	a := bytes.Repeat([]byte("payload-"), 64)
	first, err := g.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	again, err := g.Encode(bytes.Clone(a))
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &first[0] {
		t.Error("an equal payload was compressed again")
	}
	b := bytes.Clone(a)
	b[len(b)-1] ^= 1
	other, err := g.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := (zarr.GzipCodec{}).Encode(b); !bytes.Equal(other, want) {
		t.Error("a payload one byte apart got another payload's stream")
	}
}
