package metrics

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netcdf"
	"repro/internal/zarr"
)

// The oracle: a series as this package stored it before blocks, one
// []Point grown by append, and the three Flush bodies that read it.
// FuzzSeriesSinksMatchPoints holds the block-stored series and today's
// sinks to it: the same bytes from every sink, the same Stats.

// pointSeries is the []Point series.
type pointSeries struct {
	Name    string
	Context Context
	Points  []Point
}

func (s *pointSeries) key() Key { return Key{Name: s.Name, Context: s.Context} }

// stats is the []Point Series.Stats.
func (s *pointSeries) stats() Stats {
	if len(s.Points) == 0 {
		return Stats{}
	}
	st := Stats{
		Count:     len(s.Points),
		Min:       math.Inf(1),
		Max:       math.Inf(-1),
		Last:      s.Points[len(s.Points)-1].Value,
		FirstTime: s.Points[0].Time,
		LastTime:  s.Points[len(s.Points)-1].Time,
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Value
		if p.Value < st.Min {
			st.Min = p.Value
		}
		if p.Value > st.Max {
			st.Max = p.Value
		}
	}
	st.Mean = sum / float64(len(s.Points))
	return st
}

// sortPointSeries orders series as Snapshot does, by Key.String.
func sortPointSeries(snap []pointSeries) {
	slices.SortFunc(snap, func(a, b pointSeries) int { return strings.Compare(a.key().String(), b.key().String()) })
}

// pointsOf copies c's series into []Point series through At.
func pointsOf(c *Collection) []pointSeries {
	var out []pointSeries
	for _, s := range c.Snapshot() {
		ps := pointSeries{Name: s.Name, Context: s.Context, Points: []Point{}}
		for i := range s.Len() {
			ps.Points = append(ps.Points, s.At(i))
		}
		out = append(out, ps)
	}
	return out
}

// oracleInlineFlush is InlineJSONSink.Flush over []Point series.
func oracleInlineFlush(snap []pointSeries) (map[Key]string, []byte, error) {
	if len(snap) == 0 {
		return nil, nil, ErrEmptyCollection
	}
	doc := make([]jsonSeries, 0, len(snap))
	refs := make(map[Key]string, len(snap))
	for _, series := range snap {
		k := Key{Name: series.Name, Context: series.Context}
		js := jsonSeries{Name: series.Name, Context: string(series.Context)}
		js.Points = make([]jsonPoint, len(series.Points))
		for i, p := range series.Points {
			js.Points[i] = jsonPoint{
				Step:  typedLiteral{strconv.FormatInt(p.Step, 10), "xsd:long"},
				Epoch: typedLiteral{strconv.Itoa(p.Epoch), "xsd:int"},
				Time:  typedLiteral{p.Time.UTC().Format(time.RFC3339Nano), "xsd:dateTime"},
				Value: typedLiteral{strconv.FormatFloat(p.Value, 'g', -1, 64), "xsd:double"},
			}
		}
		doc = append(doc, js)
		refs[k] = "inline:" + k.String()
	}
	payload, err := json.MarshalIndent(map[string]interface{}{"metrics": doc}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return refs, payload, nil
}

// freshGzip is the gzip codec as it was: a new default-level writer for
// every chunk.
type freshGzip struct{}

func (freshGzip) ID() string { return "gzip" }

func (freshGzip) Encode(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (freshGzip) Decode(src []byte) ([]byte, error) { return zarr.GzipCodec{}.Decode(src) }

// oracleZarrFlush is ZarrSink.Flush over []Point series: four fresh
// columns per series, and every chunk compressed on its own by a fresh
// gzip writer, with no memo.
func oracleZarrFlush(snap []pointSeries, store zarr.Store, maxChunk int) (map[Key]string, error) {
	if len(snap) == 0 {
		return nil, ErrEmptyCollection
	}
	refs := make(map[Key]string, len(snap))
	bases := make(map[string]Key, len(snap))
	for _, series := range snap {
		k := Key{Name: series.Name, Context: series.Context}
		base := sanitize(string(k.Context)) + "/" + sanitize(k.Name)
		if err := claimBase(bases, base, k); err != nil {
			return nil, err
		}
		n := len(series.Points)
		value, step := make([]float64, n), make([]float64, n)
		epoch, tstamp := make([]float64, n), make([]float64, n)
		for i, p := range series.Points {
			value[i] = p.Value
			step[i] = float64(p.Step)
			epoch[i] = float64(p.Epoch)
			tstamp[i] = float64(p.Time.UnixNano()) / 1e9
		}
		chunk := max(1, min(maxChunk, n))
		for _, col := range []struct {
			name  string
			dtype zarr.DType
			data  []float64
		}{
			{"value", zarr.Float64, value},
			{"step", zarr.Int64, step},
			{"epoch", zarr.Int32, epoch},
			{"tstamp", zarr.Float64, tstamp},
		} {
			arr, err := zarr.Create(store, base+"/"+col.name, []int{n}, []int{chunk}, col.dtype, freshGzip{})
			if err == nil {
				err = arr.WriteFloat64(col.data)
			}
			if err != nil {
				return nil, fmt.Errorf("metrics: zarr sink %s/%s: %w", base, col.name, err)
			}
			if col.name == "value" {
				if err := arr.SetAttrs(map[string]interface{}{
					"metric":  k.Name,
					"context": string(k.Context),
					"points":  n,
				}); err != nil {
					return nil, err
				}
			}
		}
		refs[k] = "zarr:" + base
	}
	return refs, nil
}

// oracleNetCDFFlush is NetCDFSink.Flush over []Point series.
func oracleNetCDFFlush(snap []pointSeries) (map[Key]string, []byte, error) {
	if len(snap) == 0 {
		return nil, nil, ErrEmptyCollection
	}
	f := &netcdf.File{}
	f.Attrs = append(f.Attrs, netcdf.StrAttr("title", "yProv4ML offloaded metrics"))
	refs := make(map[Key]string, len(snap))
	bases := make(map[string]Key, len(snap))
	for i, series := range snap {
		k := Key{Name: series.Name, Context: series.Context}
		n := len(series.Points)
		if n == 0 {
			continue
		}
		base := sanitize(string(k.Context)) + "_" + sanitize(k.Name)
		if err := claimBase(bases, base, k); err != nil {
			return nil, nil, err
		}
		dim := f.AddDim(fmt.Sprintf("n%d", i), n)
		value := make([]float64, n)
		step := make([]float64, n)
		tstamp := make([]float64, n)
		for j, p := range series.Points {
			value[j] = p.Value
			step[j] = float64(p.Step)
			tstamp[j] = float64(p.Time.UnixNano()) / 1e9
		}
		f.AddVar(netcdf.Var{
			Name: base + "_value", Type: netcdf.Double, Dims: []int{dim},
			Attrs: []netcdf.Attr{netcdf.StrAttr("context", string(k.Context)), netcdf.StrAttr("metric", k.Name)},
			Data:  value,
		})
		f.AddVar(netcdf.Var{Name: base + "_step", Type: netcdf.Int, Dims: []int{dim}, Data: step})
		f.AddVar(netcdf.Var{Name: base + "_tstamp", Type: netcdf.Double, Dims: []int{dim}, Data: tstamp})
		refs[k] = "netcdf:" + base
	}
	payload, err := f.Encode()
	if err != nil {
		return nil, nil, err
	}
	return refs, payload, nil
}

// fuzzLengths are the series lengths a shape byte picks from: block
// and chunk boundaries and a series longer than two chunks.
var fuzzLengths = [...]int{0, 1, 2, 255, 256, 257, 4095, 4096, 4097, 10000}

// fuzzNames holds two names that sanitize alike, which the file sinks
// refuse to store together.
var fuzzNames = [...]string{"loss", "gpu0/util", "gpu0_util", "val loss"}

// fuzzLocations are the zones logged times are in.
var fuzzLocations = []*time.Location{time.UTC, time.FixedZone("IST", 5*3600+1800), time.FixedZone("PST", -8*3600), time.Local}

// fuzzPoint draws one point: steps and epochs across their whole range,
// NaN and infinite values, and times in any zone, before 1970 and
// outside the years UnixNano can represent.
func fuzzPoint(rng *rand.Rand, i int) Point {
	p := Point{Step: int64(i), Epoch: i / 100, Value: rng.NormFloat64()}
	switch rng.Intn(8) {
	case 0:
		p.Step = rng.Int63() - rng.Int63()
	case 1:
		p.Step = []int64{math.MinInt64, math.MaxInt64, -1}[rng.Intn(3)]
	}
	switch rng.Intn(6) {
	case 0:
		p.Epoch = int(rng.Int63n(1<<40)) - 1<<39
	case 1:
		p.Epoch = 1<<31 + rng.Intn(1000)
	}
	switch rng.Intn(10) {
	case 0:
		p.Value = math.NaN()
	case 1:
		p.Value = math.Inf(1)
	case 2:
		p.Value = math.Inf(-1)
	case 3:
		p.Value = math.Copysign(0, -1)
	case 4:
		p.Value = math.Float64frombits(rng.Uint64())
	}
	base := time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)
	switch rng.Intn(6) {
	case 0:
		p.Time = time.Unix(rng.Int63n(2e12)-1e12, rng.Int63n(1e9)).In(fuzzLocations[rng.Intn(len(fuzzLocations))])
	case 1:
		p.Time = time.Unix(-rng.Int63n(3e9), rng.Int63n(1e9)).In(fuzzLocations[rng.Intn(len(fuzzLocations))])
	case 2:
		p.Time = time.Time{}
	case 3:
		p.Time = time.Now()
	default:
		p.Time = base.Add(time.Duration(i)*time.Second + time.Duration(rng.Intn(1e9))).In(fuzzLocations[rng.Intn(len(fuzzLocations))])
	}
	return p
}

func FuzzSeriesSinksMatchPoints(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 12, 25})            // 0, 1, 2 and 257 points
	f.Add(int64(2), []byte{6, 17, 28})               // 4095, 4096, 4097
	f.Add(int64(3), []byte{9, 51})                   // 10 000 points and one beside it
	f.Add(int64(4), []byte{5, 15, 25})               // gpu0/util and gpu0_util collide
	f.Add(int64(5), []byte{})                        // nothing logged
	f.Add(int64(6), []byte{3, 3, 44, 44, 0, 40, 10}) // one key twice
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		if len(shape) > 8 {
			shape = shape[:8]
		}
		rng := rand.New(rand.NewSource(seed))
		c := NewCollection()
		oracle := map[Key]*pointSeries{}
		type planned struct {
			k Key
			n int
			h *Handle
		}
		var plan []planned
		total := 0
		for i, b := range shape {
			k := Key{Name: fuzzNames[int(b/10)%len(fuzzNames)], Context: Training}
			if b >= 40 {
				k.Context = Validation
			}
			n := min(fuzzLengths[int(b)%len(fuzzLengths)], 20000-total)
			total += n
			if oracle[k] == nil {
				oracle[k] = &pointSeries{Name: k.Name, Context: k.Context, Points: []Point{}}
			}
			p := planned{k: k, n: n}
			// Even series log through a handle, which also makes a
			// series of no points; odd ones through Collection.Log.
			if i%2 == 0 {
				h := c.Handle(k.Name, k.Context)
				p.h = &h
			} else if n == 0 {
				p.n = 1
			}
			plan = append(plan, p)
		}
		// Interleave the series' appends, as a training loop does.
		for i := 0; ; i++ {
			more := false
			for _, p := range plan {
				if i >= p.n {
					continue
				}
				more = true
				pt := fuzzPoint(rng, i)
				if p.h != nil {
					p.h.Log(pt)
				} else {
					c.Log(p.k.Name, p.k.Context, pt)
				}
				o := oracle[p.k]
				o.Points = append(o.Points, pt)
			}
			if !more {
				break
			}
		}
		var snap []pointSeries
		for _, o := range oracle {
			snap = append(snap, *o)
		}
		sortPointSeries(snap)

		// The points and their statistics.
		views := c.Snapshot()
		if len(views) != len(snap) {
			t.Fatalf("%d series, oracle %d", len(views), len(snap))
		}
		for i, v := range views {
			o := snap[i]
			if v.Name != o.Name || v.Context != o.Context || v.Len() != len(o.Points) {
				t.Fatalf("series %d: %s/%s with %d points, oracle %s/%s with %d", i, v.Context, v.Name, v.Len(), o.Context, o.Name, len(o.Points))
			}
			for j, want := range o.Points {
				got := v.At(j)
				if got.Step != want.Step || got.Epoch != want.Epoch || !sameFloat(got.Value, want.Value) ||
					!got.Time.Equal(want.Time) || got.Time.UnixNano() != want.Time.UnixNano() ||
					got.Time.Format(time.RFC3339Nano) != want.Time.UTC().Format(time.RFC3339Nano) {
					t.Fatalf("%s point %d: %+v, oracle %+v", o.key(), j, got, want)
				}
			}
			if got, want := v.Stats(), o.stats(); !sameStats(got, want) {
				t.Errorf("%s: stats %+v, oracle %+v", o.key(), got, want)
			}
		}
		for i, ss := range c.StatsSnapshot() {
			if ss.Key != snap[i].key() || !sameStats(ss.Stats, snap[i].stats()) {
				t.Errorf("StatsSnapshot %d: %s %+v, oracle %s %+v", i, ss.Key, ss.Stats, snap[i].key(), snap[i].stats())
			}
		}

		// Inline JSON.
		inline := &InlineJSONSink{}
		refs, err := inline.Flush(c)
		wantRefs, wantPayload, wantErr := oracleInlineFlush(snap)
		sameFlush(t, "inline", refs, err, wantRefs, wantErr)
		if !bytes.Equal(inline.LastPayload(), wantPayload) {
			t.Errorf("inline payload: %d bytes differ from the oracle's %d", len(inline.LastPayload()), len(wantPayload))
		}

		// Zarr.
		store, wantStore := zarr.NewMemStore(), zarr.NewMemStore()
		refs, err = (&ZarrSink{Store: store}).Flush(c)
		wantRefs, wantErr = oracleZarrFlush(snap, wantStore, 4096)
		sameFlush(t, "zarr", refs, err, wantRefs, wantErr)
		keys, _ := store.List("")
		wantKeys, _ := wantStore.List("")
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("zarr keys %v, oracle %v", keys, wantKeys)
		}
		for _, key := range keys {
			got, _ := store.Get(key)
			want, _ := wantStore.Get(key)
			if !bytes.Equal(got, want) {
				t.Errorf("zarr %s: %d bytes differ from the oracle's %d", key, len(got), len(want))
			}
		}

		// NetCDF.
		nc := &NetCDFSink{}
		refs, err = nc.Flush(c)
		wantRefs, wantPayload, wantErr = oracleNetCDFFlush(snap)
		sameFlush(t, "netcdf", refs, err, wantRefs, wantErr)
		if err == nil && !bytes.Equal(nc.LastPayload(), wantPayload) {
			t.Errorf("netcdf payload: %d bytes differ from the oracle's %d", len(nc.LastPayload()), len(wantPayload))
		}
	})
}

// sameFloat: equal bits, or both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameStats(a, b Stats) bool {
	return a.Count == b.Count && sameFloat(a.Mean, b.Mean) && sameFloat(a.Min, b.Min) && sameFloat(a.Max, b.Max) &&
		sameFloat(a.Last, b.Last) && a.FirstTime.Equal(b.FirstTime) && a.LastTime.Equal(b.LastTime)
}

func sameFlush(t *testing.T, sink string, refs map[Key]string, err error, wantRefs map[Key]string, wantErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", sink, err, wantErr)
	}
	if fmt.Sprint(refs) != fmt.Sprint(wantRefs) {
		t.Errorf("%s: refs %v, oracle %v", sink, refs, wantRefs)
	}
}
