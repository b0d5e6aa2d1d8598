package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/netcdf"
	"repro/internal/zarr"
)

// jsonPoint is the inline representation of one observation in the
// PROV-JSON attribute style the library writes to disk: numbers are
// typed string literals ({"$": ..., "type": "xsd:..."}), timestamps are
// RFC3339 strings, and the document is indented — deliberately the
// verbose layout the paper's "original file" measures in Table 1.
type jsonPoint struct {
	Step  typedLiteral `json:"provml:step"`
	Epoch typedLiteral `json:"provml:epoch"`
	Time  typedLiteral `json:"provml:time"`
	Value typedLiteral `json:"provml:value"`
}

type typedLiteral struct {
	Dollar string `json:"$"`
	Type   string `json:"type"`
}

// jsonSeries is one series in the inline layout.
type jsonSeries struct {
	Name    string      `json:"provml:name"`
	Context string      `json:"provml:context"`
	Points  []jsonPoint `json:"provml:points"`
}

// InlineJSONSink serializes every metric point into one JSON document
// under Dir (or returns the bytes via LastPayload for size accounting).
type InlineJSONSink struct {
	Dir         string
	lastPayload []byte
}

// LastPayload returns the bytes produced by the most recent Flush.
func (s *InlineJSONSink) LastPayload() []byte { return s.lastPayload }

// Flush implements Sink.
func (s *InlineJSONSink) Flush(c *Collection) (map[Key]string, error) {
	snap := c.Snapshot()
	if len(snap) == 0 {
		return nil, ErrEmptyCollection
	}
	doc := make([]jsonSeries, 0, len(snap))
	refs := make(map[Key]string, len(snap))
	for _, series := range snap {
		k := Key{Name: series.Name, Context: series.Context}
		js := jsonSeries{Name: series.Name, Context: string(series.Context)}
		js.Points = make([]jsonPoint, 0, series.Len())
		series.eachBlock(func(b *block, n int) {
			for j := range n {
				js.Points = append(js.Points, jsonPoint{
					Step:  typedLiteral{strconv.FormatInt(b.step[j], 10), "xsd:long"},
					Epoch: typedLiteral{strconv.Itoa(b.epoch[j]), "xsd:int"},
					Time:  typedLiteral{b.time(j).Format(time.RFC3339Nano), "xsd:dateTime"},
					Value: typedLiteral{strconv.FormatFloat(b.value[j], 'g', -1, 64), "xsd:double"},
				})
			}
		})
		doc = append(doc, js)
		refs[k] = "inline:" + k.String()
	}
	payload, err := json.MarshalIndent(map[string]interface{}{"metrics": doc}, "", "  ")
	if err != nil {
		return nil, err
	}
	s.lastPayload = payload
	if s.Dir != "" {
		if err := os.MkdirAll(s.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(s.Dir, "metrics_inline.json"), payload, 0o644); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// ZarrSink offloads each series into a chunked, gzip-compressed,
// byte-shuffled array group: <root>/<context>/<name>/{value,step,epoch,tstamp}.
// ChunkSize is the largest chunk extent (4096 when unset); a series
// shorter than that gets one chunk of exactly its length, so nothing
// but data is compressed.
type ZarrSink struct {
	Store     zarr.Store
	ChunkSize int
}

// Flush implements Sink. It holds every series whole, so each column is
// created at its final shape and written once: per series four
// ".zarray", the chunks and one ".zattrs", no key twice. The columns of
// every series are laid out in the same four scratch buffers, read
// straight from the collection's blocks. Each distinct chunk payload is
// compressed once: series share their step column, telemetry readings
// of one CollectOnce share their timestamps.
func (s *ZarrSink) Flush(c *Collection) (map[Key]string, error) {
	snap := c.Snapshot()
	if len(snap) == 0 {
		return nil, ErrEmptyCollection
	}
	if s.Store == nil {
		s.Store = zarr.NewMemStore()
	}
	maxChunk := s.ChunkSize
	if maxChunk <= 0 {
		maxChunk = 4096
	}
	refs := make(map[Key]string, len(snap))
	bases := make(map[string]Key, len(snap))
	codec := &gzipOnce{seen: make(map[string][]byte)}
	cols := []struct {
		name  string
		dtype zarr.DType
		data  []float64 // scratch, reused by every series
	}{
		{"value", zarr.Float64, nil},
		{"step", zarr.Int64, nil},
		{"epoch", zarr.Int32, nil},
		{"tstamp", zarr.Float64, nil},
	}
	for _, series := range snap {
		k := Key{Name: series.Name, Context: series.Context}
		base := sanitize(string(k.Context)) + "/" + sanitize(k.Name)
		if err := claimBase(bases, base, k); err != nil {
			return nil, err
		}
		n := series.Len()
		for i := range cols {
			cols[i].data = slices.Grow(cols[i].data[:0], n)[:n]
		}
		series.fillColumns(cols[0].data, cols[1].data, cols[2].data, cols[3].data)
		chunk := max(1, min(maxChunk, n))
		for _, col := range cols {
			arr, err := zarr.Create(s.Store, base+"/"+col.name, []int{n}, []int{chunk}, col.dtype, codec)
			if err == nil {
				err = arr.WriteFloat64(col.data)
			}
			if err != nil {
				return nil, fmt.Errorf("metrics: zarr sink %s/%s: %w", base, col.name, err)
			}
			if col.name == "value" {
				// Record provenance-relevant metadata on the value array.
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

// gzipOnce is zarr.GzipCodec with a memo: a payload byte-equal to one
// it has already compressed gets that stream again. The map compares
// whole keys, so a hit is an exact match, never only a hash collision.
// The store copies what it is given, so the streams can be shared.
type gzipOnce struct {
	zarr.GzipCodec
	seen map[string][]byte // payload -> its gzip stream
}

// Encode implements zarr.Codec.
func (g *gzipOnce) Encode(src []byte) ([]byte, error) {
	if enc, ok := g.seen[string(src)]; ok {
		return enc, nil
	}
	enc, err := g.GzipCodec.Encode(src)
	if err != nil {
		return nil, err
	}
	g.seen[string(src)] = enc
	return enc, nil
}

// LoadZarrSeries reads a series back from a zarr store reference. The
// series is named as it was logged — the "metric" and "context"
// attributes ZarrSink puts on the value array — and, where those are
// absent, after the reference's path.
func LoadZarrSeries(store zarr.Store, ref string) (Series, error) {
	base := strings.TrimPrefix(ref, "zarr:")
	read := func(col string) ([]float64, error) {
		arr, err := zarr.Open(store, base+"/"+col)
		if err != nil {
			return nil, err
		}
		return arr.ReadFloat64()
	}
	valueArr, err := zarr.Open(store, base+"/value")
	if err != nil {
		return Series{}, err
	}
	values, err := valueArr.ReadFloat64()
	if err != nil {
		return Series{}, err
	}
	attrs, err := valueArr.Attrs()
	if err != nil {
		return Series{}, err
	}
	steps, err := read("step")
	if err != nil {
		return Series{}, err
	}
	epochs, err := read("epoch")
	if err != nil {
		return Series{}, err
	}
	tstamps, err := read("tstamp")
	if err != nil {
		return Series{}, err
	}
	if len(steps) != len(values) || len(epochs) != len(values) || len(tstamps) != len(values) {
		return Series{}, fmt.Errorf("metrics: inconsistent column lengths under %q", base)
	}
	parts := strings.Split(base, "/")
	s := Series{Context: Context(parts[0])}
	if len(parts) > 1 {
		s.Name = parts[1]
	}
	if name, ok := attrs["metric"].(string); ok {
		s.Name = name
	}
	if ctx, ok := attrs["context"].(string); ok {
		s.Context = Context(ctx)
	}
	for i := range values {
		s.Append(Point{
			Step:  int64(steps[i]),
			Epoch: int(epochs[i]),
			Time:  time.Unix(0, int64(tstamps[i]*1e9)).UTC(),
			Value: values[i],
		})
	}
	return s, nil
}

// NetCDFSink offloads all series into a single CDF-1 file.
type NetCDFSink struct {
	Path        string
	lastPayload []byte
}

// LastPayload returns the bytes produced by the most recent Flush.
func (s *NetCDFSink) LastPayload() []byte { return s.lastPayload }

// Flush implements Sink.
func (s *NetCDFSink) Flush(c *Collection) (map[Key]string, error) {
	snap := c.Snapshot()
	if len(snap) == 0 {
		return nil, ErrEmptyCollection
	}
	f := &netcdf.File{}
	f.Attrs = append(f.Attrs, netcdf.StrAttr("title", "yProv4ML offloaded metrics"))
	refs := make(map[Key]string, len(snap))
	bases := make(map[string]Key, len(snap))
	for i, series := range snap {
		k := Key{Name: series.Name, Context: series.Context}
		n := series.Len()
		if n == 0 {
			continue
		}
		base := sanitize(string(k.Context)) + "_" + sanitize(k.Name)
		if err := claimBase(bases, base, k); err != nil {
			return nil, err
		}
		dim := f.AddDim(fmt.Sprintf("n%d", i), n)
		value := make([]float64, n)
		step := make([]float64, n)
		tstamp := make([]float64, n)
		series.fillColumns(value, step, nil, tstamp)
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
		return nil, err
	}
	s.lastPayload = payload
	if s.Path != "" {
		if err := os.MkdirAll(filepath.Dir(s.Path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(s.Path, payload, 0o644); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// claimBase records that series k is stored under base. Two series
// whose names sanitize alike would share one base, the second
// overwriting the first under a reference both documents cite, so that
// is an error naming both.
func claimBase(bases map[string]Key, base string, k Key) error {
	if prev, ok := bases[base]; ok {
		return fmt.Errorf("metrics: series %q and %q are both stored as %q", prev, k, base)
	}
	bases[base] = k
	return nil
}

// sanitize maps arbitrary series names to path-safe tokens.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// GzipSize returns the gzip-compressed size of data (Table 1's
// "Compressed Size" column), compressed by the zarr codec's kept
// deflate states.
func GzipSize(data []byte) (int, error) {
	enc, err := zarr.GzipCodec{}.Encode(data)
	return len(enc), err
}
