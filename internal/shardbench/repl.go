package shardbench

import (
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/repl"
)

// ReplicationThroughput measures WAL-shipping replication end to end:
// a primary loaded with `records` journaled event documents behind a
// real HTTP server, and one fresh follower per iteration that streams
// and applies the whole log (catch-up: bootstrap-free, from seq 0).
// The reported records/s metric is records streamed over HTTP, CRC-
// checked, re-journaled into the follower's WAL, and projected into its
// sharded graph state — the full pipeline a catching-up replica runs.
// Both sides journal without fsync so the number measures replication,
// not the disk's flush latency (BenchmarkWALAppend/fsync tracks that).
func ReplicationThroughput(records int) func(b *testing.B) {
	return func(b *testing.B) {
		store, err := provstore.Open(b.TempDir(), provstore.Durability{
			SnapshotEvery: -1,
			SegmentBytes:  1 << 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = store.Close() })
		doc := ChainDoc(batchEventDepth)
		for i := 0; i < records; i++ {
			if err := store.Put(fmt.Sprintf("rec-%05d", i), doc); err != nil {
				b.Fatal(err)
			}
		}
		target := store.AppliedSeq()
		rs := repl.NewServer(store.Log(), false)
		svc := provservice.New(store, provservice.WithReplicationPrimary(rs))
		ts := httptest.NewServer(svc)
		b.Cleanup(func() { rs.Stop(); ts.Close() })

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fdir, err := os.MkdirTemp("", "replbench-*")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()

			fs, err := provstore.Open(fdir, provstore.Durability{Follower: true, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			f, err := repl.NewFollower(fs, repl.FollowerConfig{
				PrimaryURL: ts.URL,
				ID:         fmt.Sprintf("bench-%d", i),
				RetryBase:  time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			go f.Run()
			for fs.AppliedSeq() < target {
				time.Sleep(100 * time.Microsecond)
			}
			f.Stop()

			b.StopTimer()
			if fs.Count() != records {
				b.Fatalf("follower applied %d docs, want %d", fs.Count(), records)
			}
			if err := fs.Close(); err != nil {
				b.Fatal(err)
			}
			_ = os.RemoveAll(fdir)
			b.StartTimer()
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}
}
