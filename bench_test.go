// Package repro's root benchmark suite regenerates every table and
// figure of the paper under testing.B, plus the logging-overhead and
// design-choice ablations called out in DESIGN.md §4:
//
//	BenchmarkTable1            — metric offloading file sizes (Table 1)
//	BenchmarkTable2            — PROV vs RO-Crate feature verification (Table 2)
//	BenchmarkFigure1           — example multi-context document (Figure 1)
//	BenchmarkFigure3           — energy x loss scaling grids (Figure 3)
//	BenchmarkLog*              — logging hot paths ("minimal overhead")
//	BenchmarkZarrChunking/*    — chunk-size ablation
//	BenchmarkSinks/*           — storage backend ablation
//	BenchmarkLineage/*         — graph lineage vs document-scan ablation
//	BenchmarkAllreduce/*       — ring vs naive collective model ablation
//	BenchmarkTelemetry/*       — collector sampling-period ablation
//	BenchmarkWALAppend/*       — journaled mutation durability hot path
//	BenchmarkRecovery          — provstore crash-recovery (snapshot + replay)
//	BenchmarkShardedPutParallel — concurrent uploads, single lock vs shards
//	BenchmarkMixedReadWrite    — 8-goroutine mixed workload, single lock vs shards
//	BenchmarkBatchPut/*        — bulk ingestion, sequential Puts vs one group-committed batch
//	BenchmarkReplicationThroughput — WAL-shipping follower catch-up (records/s streamed + applied)
//	BenchmarkHistObserve       — one histogram observation (the metrics hot path on every request)
//	BenchmarkFlightRecord      — flight-recorder admission on the response path (unsampled vs sampled)
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flightrec"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provstore"
	"repro/internal/shardbench"
	"repro/internal/telemetry"
	"repro/internal/trainsim"
	"repro/internal/wal"
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

// BenchmarkLineage compares graph-backed lineage queries against naive
// in-document traversal (the Neo4j-vs-scan design choice).
func BenchmarkLineage(b *testing.B) {
	store, doc := lineageFixture(b, 400)
	leaf := prov.NewQName("ex", "e399")
	b.Run("graphdb", func(b *testing.B) {
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

// BenchmarkWALAppend measures one journaled mutation acknowledgment on
// the durable document store (the write-ahead-log hot path), with and
// without fsync.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []struct {
		name  string
		fsync bool
	}{{"nosync", false}, {"fsync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			l, _, err := wal.Open(b.TempDir(), wal.Options{Fsync: mode.fsync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, 256)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures reopening a journaled provstore: snapshot
// decode plus tail replay plus graph re-projection for 100 documents.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	s, err := provstore.Open(dir, provstore.Durability{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	doc := prov.NewDocument()
	for i := 0; i < 20; i++ {
		e := prov.NewQName("ex", fmt.Sprintf("e%d", i))
		a := prov.NewQName("ex", fmt.Sprintf("a%d", i))
		doc.AddEntity(e, nil)
		doc.AddActivity(a, nil)
		doc.WasGeneratedBy(e, a, time.Time{})
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("doc-%03d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := provstore.Open(dir, provstore.Durability{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if s.Count() != 100 {
			b.Fatalf("recovered %d docs", s.Count())
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// shardConfigs pits the PR-2 single-lock layout (NewSharded(1)) against
// the sharded engine with one shard per benchmark goroutine. The
// benchmark bodies live in internal/shardbench, shared with
// internal/loadgen's scenario documents.
var shardConfigs = []struct {
	name   string
	shards int
}{
	{"single-lock", 1},
	{"sharded", shardbench.Goroutines},
}

// BenchmarkShardedPutParallel uploads distinct documents from 8
// concurrent goroutines: with per-shard locks, writers on different
// documents build their graph projections without serializing on one
// global mutex.
func BenchmarkShardedPutParallel(b *testing.B) {
	for _, cfg := range shardConfigs {
		b.Run(cfg.name, shardbench.PutParallel(cfg.shards))
	}
}

// BenchmarkMixedReadWrite runs the contention scenario that motivated
// sharding: 8 goroutines, 1 upload per 8 operations, the rest lineage
// queries — on a single-lock store every upload stalls every reader;
// sharded, only readers of the same shard wait.
func BenchmarkMixedReadWrite(b *testing.B) {
	for _, cfg := range shardConfigs {
		b.Run(cfg.name, shardbench.MixedReadWrite(cfg.shards))
	}
}

// BenchmarkLineageCached measures the full HTTP lineage read path
// through the version-keyed response cache: cold (purged every
// request), warm (pure hits — the acceptance point is >= 10x over
// cold), and invalidated (a rewrite of the queried document precedes
// every read, so caching buys nothing). Bodies live in
// internal/shardbench.
func BenchmarkLineageCached(b *testing.B) {
	for _, mode := range shardbench.LineageCachedModes() {
		b.Run(mode, shardbench.LineageCached(mode))
	}
}

// BenchmarkReplicationThroughput measures WAL-shipping replication: a
// fresh follower per iteration streams the primary's whole journal over
// HTTP, re-journals it locally, and projects it into its own sharded
// state. The records/s metric is the catch-up rate of a new replica.
func BenchmarkReplicationThroughput(b *testing.B) {
	b.Run("records=1000", shardbench.ReplicationThroughput(1000))
}

// BenchmarkBatchPut measures bulk ingestion on a journaled fsync store:
// size sequential Put calls (one fsync each) against one atomic
// PutBatch of the same documents (one group-committed fsync total).
// size=100 is the tracked acceptance row: >= 10x throughput and exactly
// 1 fsync per batch (reported as the fsyncs/batch metric).
func BenchmarkBatchPut(b *testing.B) {
	for _, size := range []int{10, 100} {
		b.Run(fmt.Sprintf("sequential/size=%d", size), shardbench.BatchPutSequential(size))
		b.Run(fmt.Sprintf("size=%d", size), shardbench.BatchPutBatch(size))
	}
}

// BenchmarkHistObserve measures one histogram observation — the cost
// added to every request, fsync, and lock acquisition by the PR-7
// instruments. It must stay in the low tens of nanoseconds; the
// parallel variant checks the atomics don't collapse under the same
// contention the request path sees.
func BenchmarkHistObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		h := obs.NewDurationHistogram()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i)%int64(time.Second) + 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		h := obs.NewDurationHistogram()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			v := int64(1)
			for pb.Next() {
				h.Observe(v % int64(time.Second))
				v += 4099
			}
		})
	})
}

// flightRecFixture builds a recorder in steady state: the p99 trigger
// armed (so the rolling latency histogram is paid for) and the route's
// slow log full of 50ms entries, so a 200µs request takes the longest
// rejection path — histogram observe, trigger counter, slow-log
// cached-min check — before being turned away.
func flightRecFixture(b *testing.B, sampleEvery int) *flightrec.Recorder {
	b.Helper()
	rec := flightrec.New(flightrec.Config{P99Threshold: 2 * time.Second, SampleEvery: sampleEvery})
	for i := 0; i < 8; i++ {
		rec.Add(&flightrec.Completed{Trace: fmt.Sprintf("seed%d", i), Route: "lineage", Dur: 50 * time.Millisecond})
	}
	return rec
}

// BenchmarkFlightRecord measures the flight recorder's cost per
// completed request. unsampled is the acceptance row: an unremarkable
// request (no error, no shed, under every threshold) must cost
// <100ns; sampled adds building and retaining the full record with a
// span breakdown, the price paid only by the kept minority.
func BenchmarkFlightRecord(b *testing.B) {
	b.Run("unsampled", func(b *testing.B) {
		rec := flightRecFixture(b, -1)
		defer rec.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec.Observe("lineage", 200, false, 200*time.Microsecond) {
				b.Fatal("unremarkable request sampled in")
			}
		}
	})
	b.Run("unsampled-parallel", func(b *testing.B) {
		rec := flightRecFixture(b, -1)
		defer rec.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rec.Observe("lineage", 200, false, 200*time.Microsecond)
			}
		})
	})
	b.Run("sampled", func(b *testing.B) {
		rec := flightRecFixture(b, 1)
		defer rec.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec.Observe("lineage", 200, false, 200*time.Microsecond) {
				rec.Add(&flightrec.Completed{
					Trace: "bench-trace",
					Route: "lineage",
					Dur:   200 * time.Microsecond,
					Spans: []flightrec.Span{{Name: "lock", Dur: time.Microsecond}, {Name: "cache", Dur: 2 * time.Microsecond}},
				})
			}
		}
	})
}

// codecBenchDoc builds the populated run document the codec benchmarks
// serialize: one run with 500 logged metric values.
func codecBenchDoc(b *testing.B) *prov.Document {
	b.Helper()
	run := benchRun(b)
	for i := 0; i < 500; i++ {
		_ = run.LogMetric("loss", metrics.Training, int64(i), float64(i))
	}
	doc, err := run.BuildProv(nil)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

// BenchmarkCodecEncode compares serializing one populated run document
// as PROV-JSON vs the compact binary WAL codec. The binary row is the
// journal-encode hot path; bytes/op shows the wire-size ratio.
func BenchmarkCodecEncode(b *testing.B) {
	doc := codecBenchDoc(b)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			j, err := doc.MarshalJSON()
			if err != nil {
				b.Fatal(err)
			}
			n = len(j)
		}
		b.SetBytes(int64(n))
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = prov.AppendBinary(buf[:0], doc)
		}
		b.SetBytes(int64(len(buf)))
	})
}

// BenchmarkCodecDecode compares parsing the two encodings back into a
// Document — the recovery/follower-apply hot path, and for json the
// ingest path too — on two shapes: the populated run document (few
// elements, many attributes; rows "json" and "binary") and a depth-33
// lineage chain, the size and shape of the documents the service
// ingests in bulk (many small records; the "-chain" rows).
func BenchmarkCodecDecode(b *testing.B) {
	for _, shape := range []struct {
		suffix string
		doc    *prov.Document
	}{{"", codecBenchDoc(b)}, {"-chain", shardbench.ChainDoc(33)}} {
		j, err := shape.doc.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		bin := prov.AppendBinary(nil, shape.doc)
		b.Run("json"+shape.suffix, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(j)))
			for i := 0; i < b.N; i++ {
				if _, err := prov.ParseJSON(j); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("binary"+shape.suffix, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bin)))
			for i := 0; i < b.N; i++ {
				if _, err := prov.ParseBinary(bin); err != nil {
					b.Fatal(err)
				}
			}
		})
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
