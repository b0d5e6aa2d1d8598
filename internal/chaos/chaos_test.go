package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/prov"
	"repro/internal/provclient"
	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/repl"
	"repro/internal/wal"
)

func chaosDoc(tag string) *prov.Document {
	d := prov.NewDocument()
	d.AddEntity("ex:data", prov.Attrs{"prov:type": prov.Str("provml:Dataset"), "provml:name": prov.Str(tag)})
	d.AddEntity("ex:model", prov.Attrs{"prov:type": prov.Str("provml:Model")})
	d.AddActivity("ex:train", prov.Attrs{"prov:type": prov.Str("provml:RunExecution")})
	d.Used("ex:train", "ex:data", time.Time{})
	d.WasGeneratedBy("ex:model", "ex:train", time.Time{})
	return d
}

// The durability contract under disk failure: writes acknowledged
// before the journal latches must all survive a crash-and-reopen;
// everything after the latch is refused, never half-applied. The disk
// dies mid-run via an injected write error on the WAL file.
func TestChaosFsyncErrorLosesNoAckedWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(nil)
	store, err := provstore.Open(dir, provstore.Durability{Fsync: true, SnapshotEvery: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	svc := provservice.New(store)
	srv := httptest.NewServer(svc)
	client := provclient.New(srv.URL)

	// The disk fails after 25 more WAL writes, then every write errors.
	ffs.FailWrites(25, errors.New("injected: I/O error"))

	var acked []string
	var refused int
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := client.Upload(id, chaosDoc(id)); err == nil {
			acked = append(acked, id)
		} else {
			refused++
		}
	}
	if len(acked) == 0 || refused == 0 {
		t.Fatalf("want both acks and refusals across the fault, got %d acked / %d refused", len(acked), refused)
	}
	if store.FailStop() == "" {
		t.Fatal("journal did not latch fail-stop after the injected error")
	}
	// Latched store keeps serving reads.
	if _, err := client.Get(acked[0]); err != nil {
		t.Fatalf("read on a latched store failed: %v", err)
	}

	srv.Close()
	_ = svc.Close() // close may report the latched journal error; recovery below is the check

	// Crash recovery on the (now healthy) disk: every acked write must
	// be present and intact.
	reopened, err := provstore.Open(dir, provstore.Durability{Fsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, id := range acked {
		got, ok := reopened.Get(id)
		if !ok {
			t.Fatalf("acked write %q lost after reopen", id)
		}
		want, _ := chaosDoc(id).MarshalJSON()
		gotJSON, _ := got.MarshalJSON()
		if !bytes.Equal(gotJSON, want) {
			t.Fatalf("acked write %q corrupted after reopen", id)
		}
	}
}

// Overload: a disk whose fsyncs stall makes the commit queue back up;
// admission control must shed new writes with 429 while reads keep
// answering promptly the whole time, and every write it did admit
// reads back byte-identical once the disk recovers (acked_lost = 0).
func TestChaosSlowFsyncShedsWritesServesReads(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	store, err := provstore.Open(t.TempDir(), provstore.Durability{Fsync: true, SnapshotEvery: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	svc := provservice.New(store,
		provservice.WithAdmission(provservice.AdmissionConfig{
			MaxInflightWrites: 2,
			ShedLatencyTarget: 10 * time.Millisecond,
		}))
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = svc.Close() })
	client := provclient.New(srv.URL)

	// Seed while healthy so reads have something to fetch.
	if err := client.Upload("seed", chaosDoc("seed")); err != nil {
		t.Fatal(err)
	}

	ffs.SlowSyncs(60 * time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shed int
	var admitted []string
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("burst-%02d", i)
			err := client.Upload(id, chaosDoc(id))
			mu.Lock()
			defer mu.Unlock()
			var apiErr *provclient.APIError
			switch {
			case err == nil:
				admitted = append(admitted, id)
			case errors.As(err, &apiErr) && apiErr.Status == 429:
				shed++
				if apiErr.RetryAfter < time.Second {
					t.Errorf("shed response Retry-After = %v, want >= 1s", apiErr.RetryAfter)
				}
			default:
				t.Errorf("burst write %d: unexpected error %v", i, err)
			}
		}(i)
	}

	// Reads during the write storm: all must succeed, and fast — they
	// never queue behind the stalled fsyncs.
	var worstRead time.Duration
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := client.Get("seed"); err != nil {
			t.Fatalf("read %d during overload failed: %v", i, err)
		}
		if took := time.Since(start); took > worstRead {
			worstRead = took
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	ffs.Clear()

	if shed == 0 {
		t.Fatalf("no writes shed under a stalled disk (admitted=%d)", len(admitted))
	}
	if len(admitted) == 0 {
		t.Fatal("every write shed — admission should keep some throughput")
	}
	if worstRead > time.Second {
		t.Fatalf("worst read took %v during overload, want well under the fsync backlog", worstRead)
	}
	for _, id := range admitted {
		got, err := client.Get(id)
		if err != nil {
			t.Fatalf("admitted write %q lost: %v", id, err)
		}
		want, _ := chaosDoc(id).MarshalJSON()
		gotJSON, _ := got.MarshalJSON()
		if !bytes.Equal(gotJSON, want) {
			t.Fatalf("admitted write %q reads back different bytes", id)
		}
	}
	t.Logf("burst of 12: %d admitted and read back, %d shed, worst read %v", len(admitted), shed, worstRead)
}

// A follower behind a degraded network (latency, connection resets,
// then a full partition) must converge to a byte-identical copy once
// the link heals, with the failure visible in its status while cut off.
func TestChaosPartitionedFollowerConverges(t *testing.T) {
	// Primary stack.
	pdir := t.TempDir()
	pstore, err := provstore.Open(pdir, provstore.Durability{Fsync: false, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rs := repl.NewServer(pstore.Log(), false)
	svc := provservice.New(pstore, provservice.WithReplicationPrimary(rs))
	srv := httptest.NewServer(svc)
	t.Cleanup(func() { rs.Stop(); srv.Close(); _ = svc.Close() })
	client := provclient.New(srv.URL)

	// The follower only ever sees the primary through the fault proxy.
	proxy, err := faultnet.Listen("127.0.0.1:0", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	proxyURL := "http://" + proxy.Addr()

	upload := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			id := fmt.Sprintf("c-%03d", i)
			if err := client.Upload(id, chaosDoc(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	upload(0, 10)

	// Follower bootstraps and streams via the proxy.
	fdir := t.TempDir()
	if _, err := repl.Bootstrap(fdir, proxyURL, "chaos-f"); err != nil {
		t.Fatal(err)
	}
	fstore, err := provstore.Open(fdir, provstore.Durability{Fsync: false, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fstore.Close() })
	f, err := repl.NewFollower(fstore, repl.FollowerConfig{
		PrimaryURL:     proxyURL,
		ID:             "chaos-f",
		AckEvery:       1,
		AckInterval:    20 * time.Millisecond,
		StatusInterval: 30 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()

	waitApplied := func(seq uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fstore.AppliedSeq() < seq {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at seq %d, want %d", fstore.AppliedSeq(), seq)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitApplied(pstore.AppliedSeq())

	// Degrade: per-read latency plus a mid-stream connection reset.
	proxy.SetLatency(5 * time.Millisecond)
	upload(10, 10)
	proxy.DropConnections()
	waitApplied(pstore.AppliedSeq()) // reconnects and catches up anyway

	// Full partition: writes continue on the primary, the follower
	// falls behind and its status shows the consecutive failures.
	proxy.Partition()
	upload(20, 10)
	fellBehind := fstore.AppliedSeq() < pstore.AppliedSeq()
	deadline := time.Now().Add(5 * time.Second)
	for f.Status().ConsecutiveFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partitioned follower never reported consecutive failures")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !fellBehind {
		t.Fatal("follower kept up through a partition — proxy not in the path?")
	}

	// Heal: the follower must converge to a byte-identical copy.
	proxy.SetLatency(0)
	proxy.Heal()
	waitApplied(pstore.AppliedSeq())
	if f.Status().ConsecutiveFailures != 0 {
		t.Fatalf("consecutive failures = %d after heal and catch-up, want 0", f.Status().ConsecutiveFailures)
	}

	pIDs, fIDs := pstore.List(), fstore.List()
	if fmt.Sprint(pIDs) != fmt.Sprint(fIDs) {
		t.Fatalf("List mismatch after heal:\nprimary:  %v\nfollower: %v", pIDs, fIDs)
	}
	for _, id := range pIDs {
		pd, _ := pstore.Get(id)
		fd, ok := fstore.Get(id)
		if !ok {
			t.Fatalf("follower missing %q after heal", id)
		}
		pb, _ := pd.MarshalJSON()
		fb, _ := fd.MarshalJSON()
		if !bytes.Equal(pb, fb) {
			t.Fatalf("document %q differs between primary and follower after heal", id)
		}
	}
}
