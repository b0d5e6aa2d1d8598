package metrics

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/zarr"
)

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
	want := zarr.NewMemStore()
	if _, err := oracleZarrFlush(pointsOf(c), want, chunk); err != nil {
		t.Fatal(err)
	}
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

// trainRunCollection is what one bench/ train_run operation logs: loss
// and accuracy at each of 1000 steps, a two-GPU fleet's ten readings
// per step sharing one timestamp, one validation loss per epoch.
func trainRunCollection() *Collection {
	c := NewCollection()
	now := time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)
	tick := func() time.Time { now = now.Add(time.Second); return now }
	hw := []string{"gpu0_util", "gpu0_power_w", "gpu0_mem_gb", "gpu0_temp_c", "gpu1_util", "gpu1_power_w", "gpu1_mem_gb", "gpu1_temp_c", "cpu_util", "cpu_power_w"}
	for step := 0; step < 1000; step++ {
		epoch := step / 250
		loss := 2 / math.Sqrt(float64(step+1))
		c.Log("loss", Training, Point{Step: int64(step), Epoch: epoch, Time: tick(), Value: loss})
		c.Log("accuracy", Training, Point{Step: int64(step), Epoch: epoch, Time: tick(), Value: 1 - loss/3})
		at := tick()
		for i, name := range hw {
			c.Log("hw_"+name, Training, Point{Step: int64(step), Epoch: epoch, Time: at, Value: float64(i) + 0.01*float64(step%17)})
		}
		if step%250 == 249 {
			c.Log("val_loss", Validation, Point{Step: int64(epoch), Epoch: epoch, Time: tick(), Value: loss})
		}
	}
	return c
}

// TestZarrSinkFlushAllocs: flushing a train_run-shaped collection
// allocates what it stores and the memo of distinct payloads, under
// 640 KB (≈ 0.3 MB). It was 2.4 MB when every series was copied out,
// split into four fresh columns and padded per chunk, and a GC dropped
// the deflate states.
func TestZarrSinkFlushAllocs(t *testing.T) {
	c := trainRunCollection()
	if _, err := (&ZarrSink{}).Flush(c); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (&ZarrSink{}).Flush(c); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 640<<10 {
		t.Errorf("one Flush allocated %d bytes, want < 640 KB", got)
	}
}
