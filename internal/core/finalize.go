package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/metrics"
	"repro/internal/zarr"
)

// EndResult reports what End wrote.
type EndResult struct {
	ProvJSONPath string
	ProvNPath    string
	MetricPaths  []string
	ProvJSON     []byte
	DocStats     struct {
		Entities, Activities, Agents, Relations int
	}
}

// End finalizes the run: closes any open epochs, flushes metrics to the
// configured storage backend, builds and validates the PROV document,
// and — when the experiment has an output directory — writes
// prov.json / prov.provn / metric files under <dir>/<run-id>/. Metrics
// are written first: when they cannot be, End fails before any PROV
// file references them. Zarr metrics go to one archive, metrics.zarr
// (zarr.WriteZip); a directory already there fails End and is left as
// it is.
func (r *Run) End() (EndResult, error) {
	r.mu.Lock()
	if r.ended {
		r.mu.Unlock()
		return EndResult{}, errEnded(r.ID)
	}
	// Close dangling epochs so durations are accounted.
	for ctx, cur := range r.curEpoch {
		if cur != nil {
			cur.End = r.clock.Now()
			cur.Duration = cur.End.Sub(cur.Start)
			r.epochs[ctx] = append(r.epochs[ctx], *cur)
			r.curEpoch[ctx] = nil
		}
	}
	r.ended = true
	r.endTime = r.clock.Now()
	storage := r.storage
	dir := ""
	if r.exp.Dir != "" {
		dir = filepath.Join(r.exp.Dir, r.ID)
	}
	r.mu.Unlock()

	var res EndResult
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return EndResult{}, err
		}
	}

	// Flush metrics through the selected sink.
	refs := map[metrics.Key]string{}
	if r.metrics.TotalPoints() > 0 {
		var err error
		switch storage {
		case StorageZarr:
			store := zarr.NewMemStore()
			refs, err = (&metrics.ZarrSink{Store: store}).Flush(r.metrics)
			if dir != "" && err == nil {
				path := filepath.Join(dir, "metrics.zarr")
				if err = zarr.WriteZip(path, store); err == nil {
					res.MetricPaths = append(res.MetricPaths, path)
				}
			}
		case StorageNetCDF:
			sink := &metrics.NetCDFSink{}
			if dir != "" {
				sink.Path = filepath.Join(dir, "metrics.nc")
			}
			refs, err = sink.Flush(r.metrics)
			if sink.Path != "" && err == nil {
				res.MetricPaths = append(res.MetricPaths, sink.Path)
			}
		default:
			sink := &metrics.InlineJSONSink{}
			if dir != "" {
				sink.Dir = dir
			}
			refs, err = sink.Flush(r.metrics)
			if sink.Dir != "" && err == nil {
				res.MetricPaths = append(res.MetricPaths, filepath.Join(sink.Dir, "metrics_inline.json"))
			}
		}
		if err != nil && err != metrics.ErrEmptyCollection {
			return EndResult{}, fmt.Errorf("core: flushing metrics: %w", err)
		}
	}

	doc, err := r.BuildProv(refs)
	if err != nil {
		return EndResult{}, err
	}
	st := doc.Stats()
	res.DocStats.Entities = st.Entities
	res.DocStats.Activities = st.Activities
	res.DocStats.Agents = st.Agents
	res.DocStats.Relations = st.Relations

	payload, err := doc.MarshalIndent()
	if err != nil {
		return EndResult{}, err
	}
	res.ProvJSON = payload

	if dir != "" {
		res.ProvJSONPath = filepath.Join(dir, "prov.json")
		if err := os.WriteFile(res.ProvJSONPath, payload, 0o644); err != nil {
			return EndResult{}, err
		}
		res.ProvNPath = filepath.Join(dir, "prov.provn")
		if err := os.WriteFile(res.ProvNPath, []byte(doc.ProvN()), 0o644); err != nil {
			return EndResult{}, err
		}
	}
	return res, nil
}
