// Package shardbench holds the sharded-engine and bulk-ingestion
// benchmark bodies shared by the root benchmark suite
// (BenchmarkShardedPutParallel, BenchmarkMixedReadWrite,
// BenchmarkBatchPut) and the loadgen scenario documents, so
// `make bench-key` and yprov-loadgen traffic measure the same workload
// instead of drifting copies.
package shardbench

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provstore"
)

// Goroutines is the concurrency level of the sharding benchmarks (the
// ISSUE-3 acceptance point: throughput at 8 goroutines).
const Goroutines = 8

// ChainDoc builds a small linear used/wasGeneratedBy lineage chain.
func ChainDoc(depth int) *prov.Document {
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
	return d
}

// PutParallel uploads distinct documents from Goroutines concurrent
// goroutines: with per-shard locks, writers on different documents
// build their graph projections without serializing on one global
// mutex. shards=1 is the single-lock baseline.
func PutParallel(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		s := provstore.NewSharded(shards)
		per := b.N/Goroutines + 1
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < Goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				doc := ChainDoc(12)
				for i := 0; i < per; i++ {
					if err := s.Put(fmt.Sprintf("w%d-%d", g, i%512), doc); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TempDir works under both `go test` and the bare testing.Benchmark
// harness in cmd/benchreport (where b.TempDir's test-name plumbing is
// unavailable).
func TempDir(b *testing.B) string {
	dir, err := os.MkdirTemp("", "shardbench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = os.RemoveAll(dir) })
	return dir
}

// openDurable opens a journaled store tuned so every measured fsync
// belongs to a commit: snapshots disabled, segment rotation pushed out
// of reach.
func openDurable(b *testing.B, shards int) *provstore.Store {
	s, err := provstore.Open(b.TempDir(), provstore.Durability{
		Fsync:         true,
		SnapshotEvery: -1,
		SegmentBytes:  1 << 30,
		Shards:        shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	return s
}

// batchEventDepth sizes the documents of the bulk-ingestion pair: a
// depth-1 chain (entity + generating activity) is the per-step
// provenance event an instrumented training run emits in volume — the
// workload batching exists for.
const batchEventDepth = 1

// batchEventDocs builds size distinct event documents.
func batchEventDocs(size int) []*prov.Document {
	docs := make([]*prov.Document, size)
	for j := range docs {
		docs[j] = ChainDoc(batchEventDepth)
	}
	return docs
}

// batchStoreEvery bounds how many benchmark iterations share one
// store: ingestion benchmarks must measure the cost of adding
// documents, not the GC tax of an unboundedly growing live set.
const batchStoreEvery = 16

// BatchPutSequential is the bulk-ingestion baseline: size sequential
// Put calls on a journaled fsync store — one WAL record, one commit,
// one fsync per document. Every iteration ingests fresh ids, like a run
// streaming new step documents; stores are recycled outside the timer.
func BatchPutSequential(size int) func(b *testing.B) {
	return func(b *testing.B) {
		docs := batchEventDocs(size)
		var s *provstore.Store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%batchStoreEvery == 0 {
				b.StopTimer()
				s = openDurable(b, 0)
				b.StartTimer()
			}
			for j := 0; j < size; j++ {
				if err := s.Put(fmt.Sprintf("i%d-d%03d", i, j), docs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BatchPutBatch ingests the same size documents through one atomic
// PutBatch — one WAL record, one group-commit fsync for the whole
// batch. Reports the measured fsyncs per batch (the acceptance point is
// exactly 1).
func BatchPutBatch(size int) func(b *testing.B) {
	return func(b *testing.B) {
		docs := batchEventDocs(size)
		batch := make(map[string]*prov.Document, size)
		var s *provstore.Store
		var syncs, batches uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%batchStoreEvery == 0 {
				b.StopTimer()
				if s != nil {
					syncs += s.Stats().Durability.Syncs
				}
				s = openDurable(b, 0)
				b.StartTimer()
			}
			for j, d := range docs {
				batch[fmt.Sprintf("i%d-d%03d", i, j)] = d
			}
			if err := s.PutBatch(batch); err != nil {
				b.Fatal(err)
			}
			batches++
			clear(batch)
		}
		b.StopTimer()
		if s != nil {
			syncs += s.Stats().Durability.Syncs
		}
		b.ReportMetric(float64(syncs)/float64(batches), "fsyncs/batch")
	}
}

// MixedReadWrite is the contention scenario that motivated sharding:
// Goroutines goroutines, one upload per 8 operations, the rest lineage
// queries — on a single-lock store every upload stalls every reader;
// sharded, only readers of the same shard wait.
func MixedReadWrite(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		s := provstore.NewSharded(shards)
		const preload = 64
		seed := ChainDoc(12)
		for i := 0; i < preload; i++ {
			if err := s.Put(fmt.Sprintf("seed-%03d", i), seed); err != nil {
				b.Fatal(err)
			}
		}
		leaf := prov.NewQName("ex", "e11")
		per := b.N/Goroutines + 1
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < Goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				doc := ChainDoc(12)
				for i := 0; i < per; i++ {
					if i%8 == 0 {
						if err := s.Put(fmt.Sprintf("w%d-%d", g, i%256), doc); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					id := fmt.Sprintf("seed-%03d", (g*31+i)%preload)
					nodes, err := s.Lineage(id, leaf, provstore.Ancestors, 0)
					if err != nil || len(nodes) == 0 {
						b.Errorf("lineage %s: %v %v", id, nodes, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
