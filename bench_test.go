// Package repro's root benchmark suite regenerates every table and
// figure of the paper under testing.B, plus the library's hot paths and
// ablations. The server's performance is measured end to end by the
// harness under bench/, not here.
//
//	BenchmarkTable1            — metric offloading file sizes (Table 1)
//	BenchmarkTable2            — PROV vs RO-Crate feature verification (Table 2)
//	BenchmarkFigure1           — example multi-context document (Figure 1)
//	BenchmarkFigure3*          — energy x loss scaling grids (Figure 3), bare and tracked
//	BenchmarkLog*, BuildProv, ProvJSONMarshal — logging hot paths ("minimal overhead")
//	BenchmarkZarrChunking/*    — chunk-size ablation
//	BenchmarkSinks/*           — storage backend ablation
//	BenchmarkLineage/*         — stored-index lineage vs per-call document scan
//	BenchmarkAllreduce/*       — ring vs naive collective model ablation
//	BenchmarkTelemetry/*       — collector sampling-period ablation
//	BenchmarkZarrAppend        — one buffered metric append
//	BenchmarkTrainsimRun       — one full simulated training run
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/prov"
	"repro/internal/provstore"
	"repro/internal/telemetry"
	"repro/internal/trainsim"
	"repro/internal/zarr"
)

// BenchmarkTable1 regenerates Table 1 (report: bytes per format).
func BenchmarkTable1(b *testing.B) {
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(5000, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Rows[0].NormalBytes), "json-bytes")
	b.ReportMetric(float64(last.Rows[1].NormalBytes), "zarr-bytes")
	b.ReportMetric(float64(last.Rows[2].NormalBytes), "nc-bytes")
	b.ReportMetric(last.ReductionPct, "reduction-%")
}

// BenchmarkTable2 regenerates the Table 2 verification.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure1 regenerates the Figure 1 example document.
func BenchmarkFigure1(b *testing.B) {
	var size int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		size = len(res.ProvJSON)
	}
	b.ReportMetric(float64(size), "prov-json-bytes")
}

// BenchmarkFigure3 regenerates the full 2x4x5 scaling sweep.
func BenchmarkFigure3(b *testing.B) {
	var res experiments.Figure3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunFigure3(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Surface two headline cells so regressions in calibration show up
	// in bench logs.
	mae := res.Grids[0].Cells["1B"][128].Metric
	b.ReportMetric(mae, "mae-1B-128gpu")
	swin := res.Grids[1].Cells["1B"][128].Metric
	b.ReportMetric(swin, "swin-1B-128gpu")
}

// BenchmarkFigure3Instrumented includes full yProv4ML tracking of all
// 40 runs, measuring the library's end-to-end cost in the use case.
func BenchmarkFigure3Instrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure3(true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- logging overhead ("minimal overhead" claim) ----------------------

func benchRun(b *testing.B) *core.Run {
	b.Helper()
	exp := core.NewExperiment("bench")
	return exp.StartRun("r",
		core.WithClock(core.NewSimClock(time.Unix(0, 0), time.Microsecond)),
		core.WithStorage(core.StorageInline))
}

// BenchmarkLogMetric measures one LogMetric call.
func BenchmarkLogMetric(b *testing.B) {
	run := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.LogMetric("loss", metrics.Training, int64(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogParam measures one LogParam call.
func BenchmarkLogParam(b *testing.B) {
	run := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.LogParam(fmt.Sprintf("p%d", i%64), i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildProv measures document generation for a populated run.
func BenchmarkBuildProv(b *testing.B) {
	run := benchRun(b)
	for i := 0; i < 1000; i++ {
		_ = run.LogMetric("loss", metrics.Training, int64(i), float64(i))
	}
	for i := 0; i < 20; i++ {
		_ = run.LogParam(fmt.Sprintf("p%d", i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.BuildProv(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvJSONMarshal measures PROV-JSON serialization.
func BenchmarkProvJSONMarshal(b *testing.B) {
	run := benchRun(b)
	for i := 0; i < 500; i++ {
		_ = run.LogMetric("loss", metrics.Training, int64(i), float64(i))
	}
	doc, err := run.BuildProv(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := doc.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations --------------------------------------------------------

// BenchmarkZarrChunking ablates the chunk size of the metric store.
func BenchmarkZarrChunking(b *testing.B) {
	data := make([]float64, 100_000)
	for i := range data {
		data[i] = float64(i % 977)
	}
	for _, chunk := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := zarr.NewMemStore()
				arr, err := zarr.Create(store, "x", []int{len(data)}, []int{chunk}, zarr.Float64, zarr.GzipCodec{})
				if err != nil {
					b.Fatal(err)
				}
				if err := arr.WriteFloat64(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSinks ablates the three metric storage backends.
func BenchmarkSinks(b *testing.B) {
	c := metrics.NewCollection()
	base := time.Unix(0, 0)
	for i := 0; i < 20_000; i++ {
		c.Log("loss", metrics.Training, metrics.Point{Step: int64(i), Time: base.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	b.Run("inline-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink := &metrics.InlineJSONSink{}
			if _, err := sink.Flush(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zarr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink := &metrics.ZarrSink{}
			if _, err := sink.Flush(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("netcdf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink := &metrics.NetCDFSink{}
			if _, err := sink.Flush(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// lineageFixture uploads a deep chain document to a store.
func lineageFixture(b *testing.B, depth int) (*provstore.Store, *prov.Document) {
	b.Helper()
	d := prov.NewDocument()
	prev := prov.QName("")
	for i := 0; i < depth; i++ {
		e := prov.NewQName("ex", fmt.Sprintf("e%d", i))
		a := prov.NewQName("ex", fmt.Sprintf("a%d", i))
		d.AddEntity(e, nil)
		d.AddActivity(a, nil)
		if prev != "" {
			d.Used(a, prev, time.Time{})
		}
		d.WasGeneratedBy(e, a, time.Time{})
		prev = e
	}
	s := provstore.New()
	if err := s.Put("chain", d); err != nil {
		b.Fatal(err)
	}
	return s, d
}

// BenchmarkLineage compares provstore.Lineage, which walks the
// prov.Index stored with the document, against Document.Ancestors,
// which builds an index on every call.
func BenchmarkLineage(b *testing.B) {
	store, doc := lineageFixture(b, 400)
	leaf := prov.NewQName("ex", "e399")
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nodes, err := store.Lineage("chain", leaf, provstore.Ancestors, 0)
			if err != nil || len(nodes) == 0 {
				b.Fatalf("%v %v", len(nodes), err)
			}
		}
	})
	b.Run("document-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := doc.Ancestors(leaf); len(got) == 0 {
				b.Fatal("no ancestors")
			}
		}
	})
}

// BenchmarkAllreduce compares the ring model against the naive
// broadcast baseline across group sizes.
func BenchmarkAllreduce(b *testing.B) {
	for _, gpus := range []int{8, 128} {
		c := trainsim.FrontierLike(gpus)
		b.Run(fmt.Sprintf("ring-%dgpu", gpus), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc += c.AllreduceSeconds(2.8e9)
			}
			b.ReportMetric(c.AllreduceSeconds(2.8e9)*1e3, "model-ms")
			_ = acc
		})
		b.Run(fmt.Sprintf("naive-%dgpu", gpus), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc += c.NaiveAllreduceSeconds(2.8e9)
			}
			b.ReportMetric(c.NaiveAllreduceSeconds(2.8e9)*1e3, "model-ms")
			_ = acc
		})
	}
}

// BenchmarkTelemetry ablates the collector sampling period over a fixed
// simulated hour: finer sampling costs linearly more.
func BenchmarkTelemetry(b *testing.B) {
	for _, period := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		b.Run(fmt.Sprintf("period-%s", period), func(b *testing.B) {
			col := &telemetry.Collector{
				Samplers: []telemetry.Sampler{telemetry.NewGPUSampler(telemetry.MI250XGCD(), 0, 1)},
				Period:   period,
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := col.Collect(time.Hour, telemetry.ConstantLoad(0.8)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZarrAppend measures the incremental metric-logging hot path
// (one small append per training step).
func BenchmarkZarrAppend(b *testing.B) {
	store := zarr.NewMemStore()
	arr, err := zarr.Create(store, "loss", []int{0}, []int{4096}, zarr.Float64, zarr.GzipCodec{Level: 1})
	if err != nil {
		b.Fatal(err)
	}
	buf := []float64{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf[0] = float64(i)
		if err := arr.Append(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainsimRun measures one full simulated run.
func BenchmarkTrainsimRun(b *testing.B) {
	spec, err := trainsim.PaperSpec(trainsim.MaskedAutoencoder, "600M", 64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
