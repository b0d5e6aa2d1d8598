package metrics

import (
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/zarr"
)

// Get returns the Snapshot view of the series for the key; the library
// has no caller for a lookup by key.
func (c *Collection) Get(name string, ctx Context) (Series, bool) {
	for _, s := range c.Snapshot() {
		if s.Name == name && s.Context == ctx {
			return s, true
		}
	}
	return Series{}, false
}

func fill(c *Collection, name string, ctx Context, n int) {
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		c.Log(name, ctx, Point{
			Step:  int64(i),
			Epoch: i / 100,
			Time:  base.Add(time.Duration(i) * time.Second),
			Value: 2.0 / float64(i+1),
		})
	}
}

func TestLogAndGet(t *testing.T) {
	c := NewCollection()
	fill(c, "loss", Training, 10)
	s, ok := c.Get("loss", Training)
	if !ok || s.Len() != 10 {
		t.Fatalf("series = %+v", s)
	}
	if _, ok := c.Get("loss", Validation); ok {
		t.Error("wrong context must not match")
	}
	if c.TotalPoints() != 10 {
		t.Errorf("total = %d", c.TotalPoints())
	}
}

// TestGetReturnsCopy: the view Get returns and the collection's series
// share their blocks, yet appending to either leaves the other as it
// was.
func TestGetReturnsCopy(t *testing.T) {
	c := NewCollection()
	fill(c, "loss", Training, 3)
	s, _ := c.Get("loss", Training)
	s.Append(Point{Step: 99, Value: 999})
	fill(c, "loss", Training, 2)
	s2, _ := c.Get("loss", Training)
	if s2.Len() != 5 || s2.At(3).Value == 999 {
		t.Error("appending to a Get result changed the collection's series")
	}
	if s.Len() != 4 || s.At(3).Value != 999 || s.At(2).Value != 2.0/3 {
		t.Error("logging to the collection changed an earlier Get result")
	}
}

func TestKeysSorted(t *testing.T) {
	c := NewCollection()
	fill(c, "z", Training, 1)
	fill(c, "a", Validation, 1)
	fill(c, "a", Training, 1)
	keys := c.Keys()
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1].String() >= keys[i].String() {
			t.Errorf("keys not sorted: %v", keys)
		}
	}
}

func TestStats(t *testing.T) {
	c := NewCollection()
	base := time.Now().UTC()
	for i, v := range []float64{3, 1, 2} {
		c.Log("m", Training, Point{Step: int64(i), Time: base.Add(time.Duration(i) * time.Second), Value: v})
	}
	s, _ := c.Get("m", Training)
	st := s.Stats()
	if st.Count != 3 || st.Min != 1 || st.Max != 3 || st.Last != 2 || math.Abs(st.Mean-2) > 1e-12 {
		t.Fatalf("stats = %+v", st)
	}
	empty := (&Series{}).Stats()
	if empty.Count != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestConcurrentLogging(t *testing.T) {
	c := NewCollection()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Log("loss", Training, Point{Step: int64(w*200 + i), Value: 1})
			}
		}(w)
	}
	wg.Wait()
	if c.TotalPoints() != 1600 {
		t.Errorf("points = %d", c.TotalPoints())
	}
}

func TestInlineJSONSink(t *testing.T) {
	c := NewCollection()
	fill(c, "loss", Training, 50)
	fill(c, "gpu_power", Training, 50)
	sink := &InlineJSONSink{Dir: t.TempDir()}
	refs, err := sink.Flush(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("refs = %v", refs)
	}
	if len(sink.LastPayload()) == 0 {
		t.Fatal("payload empty")
	}
}

func TestSinkEmptyCollection(t *testing.T) {
	for _, sink := range []Sink{&InlineJSONSink{}, &ZarrSink{}, &NetCDFSink{}} {
		if _, err := sink.Flush(NewCollection()); err == nil {
			t.Errorf("%T: empty flush must fail", sink)
		}
	}
}

func TestZarrSinkRoundTrip(t *testing.T) {
	c := NewCollection()
	fill(c, "loss", Training, 321)
	sink := &ZarrSink{ChunkSize: 64}
	refs, err := sink.Flush(c)
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[Key{Name: "loss", Context: Training}]
	back, err := LoadZarrSeries(sink.Store, ref)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := c.Get("loss", Training)
	if back.Len() != orig.Len() {
		t.Fatalf("len %d != %d", back.Len(), orig.Len())
	}
	for i := range orig.Len() {
		o, b := orig.At(i), back.At(i)
		if o.Value != b.Value || o.Step != b.Step || o.Epoch != b.Epoch {
			t.Fatalf("point %d: %+v != %+v", i, b, o)
		}
		if d := o.Time.Sub(b.Time); d > time.Microsecond || d < -time.Microsecond {
			t.Fatalf("timestamp drift %v at %d", d, i)
		}
	}
}

// countingStore records the key of every Set.
type countingStore struct {
	zarr.Store
	sets []string
}

func (s *countingStore) Set(key string, value []byte) error {
	s.sets = append(s.sets, key)
	return s.Store.Set(key, value)
}

// TestZarrSinkWritesEachKeyOnce: a series that fits one chunk costs nine
// store writes — four ".zarray", four chunks, one ".zattrs" — and no
// key is written twice; its chunk extent is its own length, and
// ChunkSize stays the extent of a series longer than that.
func TestZarrSinkWritesEachKeyOnce(t *testing.T) {
	c := NewCollection()
	fill(c, "short", Training, 4)
	fill(c, "exact", Training, 64)
	fill(c, "long", Validation, 150)
	store := &countingStore{Store: zarr.NewMemStore()}
	sink := &ZarrSink{Store: store, ChunkSize: 64}
	if _, err := sink.Flush(c); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	perSeries := map[string]int{}
	for _, key := range store.sets {
		if seen[key] {
			t.Errorf("key %q written twice", key)
		}
		seen[key] = true
		perSeries[strings.Join(strings.Split(key, "/")[:2], "/")]++
	}
	// 150 points in chunks of 64 are three chunks per column.
	want := map[string]int{"TRAINING/short": 9, "TRAINING/exact": 9, "VALIDATION/long": 4 + 4*3 + 1}
	for series, n := range want {
		if perSeries[series] != n {
			t.Errorf("%s: %d store writes, want %d", series, perSeries[series], n)
		}
	}
	for series, extent := range map[string]int{"TRAINING/short": 4, "TRAINING/exact": 64, "VALIDATION/long": 64} {
		for _, col := range []string{"value", "step", "epoch", "tstamp"} {
			raw, err := store.Get(series + "/" + col + "/.zarray")
			if err != nil {
				t.Fatal(err)
			}
			var meta zarr.Meta
			if err := json.Unmarshal(raw, &meta); err != nil {
				t.Fatal(err)
			}
			if got := meta.Chunks[0]; got != extent {
				t.Errorf("%s/%s: chunk extent %d, want %d", series, col, got, extent)
			}
		}
	}
}

// TestLoadZarrSeriesFromLegacyStore reads a store the last version
// before the shuffle filter wrote (internal/zarr/testdata/legacy, see
// compat_test.go there for what it holds).
func TestLoadZarrSeriesFromLegacyStore(t *testing.T) {
	store := zarr.NewMemStore()
	root := filepath.Join("..", "zarr", "testdata", "legacy")
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
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadZarrSeries(store, "zarr:TRAINING/loss")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "loss" || s.Context != Training || s.Len() != 70 {
		t.Fatalf("series = %s/%s with %d points", s.Context, s.Name, s.Len())
	}
	base := time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)
	for i := range s.Len() {
		p := s.At(i)
		want := Point{Step: int64(i) * 3, Epoch: i / 10, Value: 2/math.Sqrt(float64(i+1)) + 0.125}
		if p.Step != want.Step || p.Epoch != want.Epoch || p.Value != want.Value {
			t.Fatalf("point %d = %+v, want %+v", i, p, want)
		}
		if d := p.Time.Sub(base.Add(time.Duration(i) * 1500 * time.Millisecond)); d > time.Microsecond || d < -time.Microsecond {
			t.Fatalf("point %d: timestamp off by %v", i, d)
		}
	}
}

// TestLoadZarrSeriesThroughArchive: series written to a zip archive
// come back from OpenZip under the names they were logged with, not
// the sanitized path ("val/loss" is stored as VALIDATION/val_loss).
func TestLoadZarrSeriesThroughArchive(t *testing.T) {
	c := NewCollection()
	fill(c, "val/loss", Validation, 40)
	fill(c, "gpu 0:power", Training, 300)
	mem := zarr.NewMemStore()
	refs, err := (&ZarrSink{Store: mem}).Flush(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.zarr")
	if err := zarr.WriteZip(path, mem); err != nil {
		t.Fatal(err)
	}
	store, err := zarr.OpenZip(path)
	if err != nil {
		t.Fatal(err)
	}
	for k, ref := range refs {
		s, err := LoadZarrSeries(store, ref)
		if err != nil {
			t.Fatal(err)
		}
		orig, _ := c.Get(k.Name, k.Context)
		if s.Name != k.Name || s.Context != k.Context || s.Len() != orig.Len() {
			t.Fatalf("%s reads back as %s/%s with %d points, want %d", ref, s.Context, s.Name, s.Len(), orig.Len())
		}
		for i := range orig.Len() {
			if got, want := s.At(i), orig.At(i); got.Value != want.Value || got.Step != want.Step {
				t.Fatalf("%s point %d: %+v, want %+v", ref, i, got, want)
			}
		}
	}
}

// TestSinksRejectNameCollisions: two series whose names sanitize to one
// stored name fail Flush with an error naming both, in either sink; at
// the name the second would have overwritten the first.
func TestSinksRejectNameCollisions(t *testing.T) {
	c := NewCollection()
	fill(c, "a/b", Training, 5)
	fill(c, "a_b", Training, 7)
	for _, sink := range []Sink{&ZarrSink{}, &NetCDFSink{}} {
		_, err := sink.Flush(c)
		if err == nil {
			t.Errorf("%T: Flush stored a/b and a_b under one name", sink)
			continue
		}
		if !strings.Contains(err.Error(), "TRAINING/a/b") || !strings.Contains(err.Error(), "TRAINING/a_b") {
			t.Errorf("%T: error %q does not name both series", sink, err)
		}
	}
}

func TestNetCDFSink(t *testing.T) {
	c := NewCollection()
	fill(c, "loss", Training, 100)
	fill(c, "loss", Validation, 40)
	sink := &NetCDFSink{}
	refs, err := sink.Flush(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("refs = %v", refs)
	}
	payload := sink.LastPayload()
	if len(payload) == 0 || string(payload[:3]) != "CDF" {
		t.Fatal("payload is not a CDF file")
	}
}

func TestOffloadingBeatsInlineJSON(t *testing.T) {
	// The core Table 1 mechanism: binary offloading must be much
	// smaller than numbers-as-JSON for a realistic series volume.
	c := NewCollection()
	fill(c, "loss", Training, 20000)
	fill(c, "gpu0_power_w", Training, 20000)

	inline := &InlineJSONSink{}
	if _, err := inline.Flush(c); err != nil {
		t.Fatal(err)
	}
	jsonSize := len(inline.LastPayload())

	zs := &ZarrSink{}
	if _, err := zs.Flush(c); err != nil {
		t.Fatal(err)
	}
	zarrSize := int(zs.Store.(interface{ TotalBytes() int64 }).TotalBytes())

	nc := &NetCDFSink{}
	if _, err := nc.Flush(c); err != nil {
		t.Fatal(err)
	}
	ncSize := len(nc.LastPayload())

	if float64(zarrSize) > 0.5*float64(jsonSize) {
		t.Errorf("zarr %d should be well under inline JSON %d", zarrSize, jsonSize)
	}
	if float64(ncSize) > 0.5*float64(jsonSize) {
		t.Errorf("netcdf %d should be well under inline JSON %d", ncSize, jsonSize)
	}
}

func TestGzipSize(t *testing.T) {
	data := make([]byte, 10000) // zeros compress extremely well
	n, err := GzipSize(data)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || n >= len(data)/10 {
		t.Errorf("gzip size = %d", n)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"loss":        "loss",
		"gpu/0 power": "gpu_0_power",
		"weird:name*": "weird_name_",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSeriesAppendNeverCopies: 10 000 appends allocate the blocks that
// hold the points and little else, and the block holding the first
// point is never replaced.
func TestSeriesAppendNeverCopies(t *testing.T) {
	const n = 10000
	var s Series
	p := Point{Time: time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.Append(p)
	first := s.blocks[0]
	for i := 1; i < n; i++ {
		p.Step, p.Value = int64(i), float64(i)
		s.Append(p)
	}
	runtime.ReadMemStats(&after)
	blockBytes := len(s.blocks) * int(unsafe.Sizeof(block{}))
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(blockBytes) {
		t.Errorf("%d appends allocated %d bytes, want <= 1.1 x the %d block bytes", n, got, blockBytes)
	}
	if s.blocks[0] != first || s.Len() != n || s.At(n-1).Step != n-1 || s.At(0).Step != 0 {
		t.Error("appends moved stored points")
	}
}

// TestSnapshotWhileLogging reads every point of Snapshot views and
// flushes while other goroutines log; run with -race. A view keeps the
// length it was taken at.
func TestSnapshotWhileLogging(t *testing.T) {
	c := NewCollection()
	h := c.Handle("loss", Training)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			h.Log(Point{Step: int64(i), Value: float64(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			c.Log("acc", Training, Point{Step: int64(i), Value: float64(i)})
		}
	}()
	for r := 0; r < 20; r++ {
		for _, s := range c.Snapshot() {
			n := s.Len()
			for i := range n {
				if p := s.At(i); p.Step != int64(i) {
					t.Fatalf("%s point %d has step %d", s.Name, i, p.Step)
				}
			}
			if s.Stats().Count != n || s.Len() != n {
				t.Fatalf("%s: a view grew from %d points", s.Name, n)
			}
		}
		if _, err := (&ZarrSink{}).Flush(c); err != nil && err != ErrEmptyCollection {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.TotalPoints() != 6000 {
		t.Errorf("points = %d", c.TotalPoints())
	}
}
