// Package repl_test exercises WAL-shipping replication end to end:
// real primary and follower stores, a real HTTP boundary between them,
// and the convergence/crash scenarios from the ISSUE-5 acceptance
// criteria. (External test package: provservice imports repl, so these
// integration tests must live outside package repl.)
package repl_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provclient"
	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/repl"
)

// testDoc builds a small typed lineage document distinguishable by id.
func testDoc(t testing.TB, tag string) *prov.Document {
	t.Helper()
	d := prov.NewDocument()
	d.AddEntity("ex:data", prov.Attrs{"prov:type": prov.Str("provml:Dataset"), "provml:name": prov.Str(tag)})
	d.AddEntity("ex:model", prov.Attrs{"prov:type": prov.Str("provml:Model")})
	d.AddActivity("ex:train", prov.Attrs{"prov:type": prov.Str("provml:RunExecution")})
	d.Used("ex:train", "ex:data", time.Time{})
	d.WasGeneratedBy("ex:model", "ex:train", time.Time{})
	return d
}

// primaryNode is one live primary: store + repl server + HTTP front.
type primaryNode struct {
	store *provstore.Store
	repl  *repl.Server
	svc   *provservice.Service
	http  *httptest.Server
}

func startPrimary(t *testing.T, dir string, d provstore.Durability, opts ...provservice.Option) *primaryNode {
	t.Helper()
	store, err := provstore.Open(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	rs := repl.NewServer(store.Log(), d.Fsync)
	svc := provservice.New(store, append([]provservice.Option{provservice.WithReplicationPrimary(rs)}, opts...)...)
	ts := httptest.NewServer(svc)
	n := &primaryNode{store: store, repl: rs, svc: svc, http: ts}
	t.Cleanup(func() { n.stop(t) })
	return n
}

func (n *primaryNode) stop(t *testing.T) {
	t.Helper()
	n.repl.Stop()
	n.http.Close()
	_ = n.svc.Close()
}

// startFollowerStore bootstraps and opens a follower store for primary.
func startFollowerStore(t *testing.T, dir, primaryURL string, shards int, fsync bool) *provstore.Store {
	t.Helper()
	if _, err := repl.Bootstrap(dir, primaryURL, "test-follower"); err != nil {
		t.Fatal(err)
	}
	store, err := provstore.Open(dir, provstore.Durability{
		Fsync:    fsync,
		Shards:   shards,
		Follower: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func followerConfig(primaryURL, id string, fsync bool) repl.FollowerConfig {
	return repl.FollowerConfig{
		PrimaryURL:     primaryURL,
		ID:             id,
		Fsync:          fsync,
		AckEvery:       1,
		AckInterval:    20 * time.Millisecond,
		StatusInterval: 30 * time.Millisecond,
		RetryBase:      10 * time.Millisecond,
		RetryMax:       100 * time.Millisecond,
	}
}

// waitApplied polls until the store's applied watermark reaches seq.
func waitApplied(t *testing.T, s *provstore.Store, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d", s.AppliedSeq(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertIdentical checks the acceptance criterion: byte-identical
// List/Get/FindByType/Lineage results between primary and follower.
func assertIdentical(t *testing.T, primary, follower *provstore.Store) {
	t.Helper()
	pIDs, fIDs := primary.List(), follower.List()
	if fmt.Sprint(pIDs) != fmt.Sprint(fIDs) {
		t.Fatalf("List mismatch:\nprimary:  %v\nfollower: %v", pIDs, fIDs)
	}
	for _, id := range pIDs {
		pd, _ := storeGet(primary, id)
		fd, ok := storeGet(follower, id)
		if !ok {
			t.Fatalf("follower missing %q", id)
		}
		pb, _ := pd.MarshalJSON()
		fb, _ := fd.MarshalJSON()
		if !bytes.Equal(pb, fb) {
			t.Fatalf("document %q differs between primary and follower", id)
		}
		pl, err1 := primary.Lineage(id, "ex:model", provstore.Ancestors, 0)
		fl, err2 := follower.Lineage(id, "ex:model", provstore.Ancestors, 0)
		if err1 != nil || err2 != nil || fmt.Sprint(pl) != fmt.Sprint(fl) {
			t.Fatalf("Lineage(%q) mismatch: %v/%v vs %v/%v", id, pl, err1, fl, err2)
		}
	}
	pf := primary.FindByType("provml:Dataset")
	ff := follower.FindByType("provml:Dataset")
	if fmt.Sprint(pf) != fmt.Sprint(ff) {
		t.Fatalf("FindByType mismatch:\nprimary:  %v\nfollower: %v", pf, ff)
	}
}

// TestFollowerConvergesAcrossShardCounts is the core acceptance
// scenario: a follower started against a loaded primary — with a
// DIFFERENT shard count — catches up over the stream, keeps applying
// live writes (singles, an atomic batch, and deletes), and ends
// byte-identical.
func TestFollowerConvergesAcrossShardCounts(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{Shards: 4, SnapshotEvery: -1})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("pre-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}

	for _, shards := range []int{1, 16} {
		shards := shards
		t.Run(fmt.Sprintf("follower-shards-%d", shards), func(t *testing.T) {
			fs := startFollowerStore(t, t.TempDir(), primary.http.URL, shards, false)
			defer fs.Close()
			f, err := repl.NewFollower(fs, followerConfig(primary.http.URL, fmt.Sprintf("f%d", shards), false))
			if err != nil {
				t.Fatal(err)
			}
			go f.Run()
			defer f.Stop()

			waitApplied(t, fs, primary.store.AppliedSeq())
			assertIdentical(t, primary.store, fs)

			// Live tail: singles, one atomic batch, and deletes land on the
			// already-connected follower.
			batch := map[string]*prov.Document{}
			for i := 0; i < 10; i++ {
				id := fmt.Sprintf("live-%d-%03d", shards, i)
				batch[id] = testDoc(t, id)
			}
			if err := primary.store.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := primary.store.Put(fmt.Sprintf("single-%d", shards), testDoc(t, "single")); err != nil {
				t.Fatal(err)
			}
			gone := fmt.Sprintf("gone-%d", shards)
			if err := primary.store.Put(gone, testDoc(t, gone)); err != nil {
				t.Fatal(err)
			}
			if err := storeDelete(primary.store, gone); err != nil {
				t.Fatal(err)
			}
			waitApplied(t, fs, primary.store.AppliedSeq())
			assertIdentical(t, primary.store, fs)
			if fs.ShardCount() != shards {
				t.Fatalf("follower shard count = %d, want %d", fs.ShardCount(), shards)
			}
		})
	}
}

// TestFollowerBootstrapsFromSnapshotAfterCompaction: the primary has
// checkpointed and compacted its journal, so a fresh follower cannot
// stream from seq 0 — bootstrap must install the snapshot first, then
// the stream delivers only the tail.
func TestFollowerBootstrapsFromSnapshotAfterCompaction(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1, SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail records after the snapshot.
	for i := 30; i < 35; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	seq, err := repl.Bootstrap(dir, primary.http.URL, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("bootstrap found no snapshot on a checkpointed primary")
	}
	fs, err := provstore.Open(dir, provstore.Durability{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.AppliedSeq() != seq {
		t.Fatalf("bootstrapped store at seq %d, want snapshot seq %d", fs.AppliedSeq(), seq)
	}
	f, err := repl.NewFollower(fs, followerConfig(primary.http.URL, "boot", false))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()
	waitApplied(t, fs, primary.store.AppliedSeq())
	assertIdentical(t, primary.store, fs)
}

// TestBootstrapPinsCompactionUntilStreamConnect: a checkpoint+compact
// landing BETWEEN a follower's snapshot bootstrap and its first stream
// connect must not delete the tail the follower is about to request —
// the bootstrap registers the follower, which floors compaction.
func TestBootstrapPinsCompactionUntilStreamConnect(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1, SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Bootstrap against the current snapshot...
	dir := t.TempDir()
	seq, err := repl.Bootstrap(dir, primary.http.URL, "racer")
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("no snapshot installed")
	}
	// ...then the primary moves on and checkpoints+compacts again
	// before the follower ever connects.
	for i := 20; i < 30; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fs, err := provstore.Open(dir, provstore.Durability{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := repl.NewFollower(fs, followerConfig(primary.http.URL, "racer", false))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()
	waitApplied(t, fs, primary.store.AppliedSeq())
	assertIdentical(t, primary.store, fs)
	if msg := f.Status().LastStreamError; strings.Contains(msg, "compacted") {
		t.Fatalf("follower hit the compaction race: %s", msg)
	}
}

// TestFollowerKill9ResumesFromLocalWAL: the follower is killed with a
// torn record on its local journal tail (what kill -9 mid-write
// leaves), and a batch record cut mid-frame must vanish whole — then
// the restarted follower resumes FROM ITS LOCAL STATE and re-streams
// only what it lost, converging with zero acked-write loss.
func TestFollowerKill9ResumesFromLocalWAL(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	preBatchSeq := primary.store.AppliedSeq()
	batch := map[string]*prov.Document{}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("batch-%03d", i)
		batch[id] = testDoc(t, id)
	}
	if err := primary.store.PutBatch(batch); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fs := startFollowerStore(t, dir, primary.http.URL, 2, false)
	f, err := repl.NewFollower(fs, followerConfig(primary.http.URL, "kill9", false))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	waitApplied(t, fs, primary.store.AppliedSeq())
	f.Stop()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate kill -9 mid-write: cut the follower's newest segment
	// inside its final record — which is the 5-document batch. Record
	// framing makes the cut discard the batch whole.
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	fs2, err := provstore.Open(dir, provstore.Durability{Follower: true, Shards: 2})
	if err != nil {
		t.Fatalf("reopen after simulated kill -9: %v", err)
	}
	defer fs2.Close()
	// All-or-nothing: the torn batch is fully absent, every earlier
	// record fully present.
	if got := fs2.AppliedSeq(); got != preBatchSeq {
		t.Fatalf("recovered seq %d, want pre-batch %d (batch must vanish whole)", got, preBatchSeq)
	}
	for id := range batch {
		if _, ok := storeGet(fs2, id); ok {
			t.Fatalf("partial batch survived the torn record: %q present", id)
		}
	}
	if fs2.Count() != 10 {
		t.Fatalf("recovered %d docs, want 10", fs2.Count())
	}

	// Restart replication: it resumes from local seq and re-streams only
	// the lost batch.
	f2, err := repl.NewFollower(fs2, followerConfig(primary.http.URL, "kill9", false))
	if err != nil {
		t.Fatal(err)
	}
	go f2.Run()
	defer f2.Stop()
	waitApplied(t, fs2, primary.store.AppliedSeq())
	assertIdentical(t, primary.store, fs2)
}

// newestSegment returns the newest *.wal file in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	newest := matches[0]
	for _, m := range matches[1:] {
		if m > newest {
			newest = m
		}
	}
	return newest
}

// TestPrimaryRestartMidStreamIsRetried: the primary dies mid-stream
// (kill -9: no graceful close of its store) and comes back at the same
// URL; the follower retries with backoff and converges on the restarted
// primary's history with zero acked-write loss.
func TestPrimaryRestartMidStreamIsRetried(t *testing.T) {
	pdir := t.TempDir()
	store1, err := provstore.Open(pdir, provstore.Durability{Fsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rs1 := repl.NewServer(store1.Log(), true)
	svc1 := provservice.New(store1, provservice.WithReplicationPrimary(rs1))

	// A stable URL whose backend we can swap: the "restart".
	type backend struct{ h http.Handler }
	var handler atomic.Value
	handler.Store(backend{svc1})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(backend).h.ServeHTTP(w, r)
	}))
	defer front.Close()

	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := store1.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	fs := startFollowerStore(t, fdir, front.URL, 0, true)
	defer fs.Close()
	f, err := repl.NewFollower(fs, followerConfig(front.URL, "retry", true))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()
	waitApplied(t, fs, store1.AppliedSeq())

	// Kill the primary mid-stream: replication stops, streams cut, the
	// URL starts refusing, and the store is reopened like after kill -9
	// (fsync was on, so every acknowledged write survives).
	rs1.Stop()
	handler.Store(backend{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "connection refused (primary down)", http.StatusBadGateway)
	})})
	_ = svc1.Close()

	store2, err := provstore.Open(pdir, provstore.Durability{Fsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rs2 := repl.NewServer(store2.Log(), true)
	svc2 := provservice.New(store2, provservice.WithReplicationPrimary(rs2))
	defer func() { rs2.Stop(); _ = svc2.Close() }()
	for i := 8; i < 14; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := store2.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	handler.Store(backend{svc2}) // primary is back

	waitApplied(t, fs, store2.AppliedSeq())
	assertIdentical(t, store2, fs)
}

// TestFollowerServesReadsWhileLaggedWithAccurateStats: with the
// primary's stream stopped, the follower keeps serving its recovered
// state, /api/v0/stats reports role/applied/lag/last-error, and
// /healthz degrades past -max-lag.
func TestFollowerServesReadsWhileLaggedWithAccurateStats(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1})
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	fs := startFollowerStore(t, fdir, primary.http.URL, 0, false)
	defer fs.Close()
	f, err := repl.NewFollower(fs, followerConfig(primary.http.URL, "lagged", false))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()
	waitApplied(t, fs, primary.store.AppliedSeq())
	caughtUp := primary.store.AppliedSeq()

	fsvc := provservice.New(fs, provservice.WithReplicationFollower(f, primary.http.URL, 3))
	fhttp := httptest.NewServer(fsvc)
	defer fhttp.Close()

	// Cut replication, then advance the primary well past -max-lag=3.
	primary.repl.Stop()
	for i := 6; i < 16; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}

	// The follower still serves reads from its lagged state.
	fc := provclient.New(fhttp.URL)
	ids, err := fc.List()
	if err != nil {
		t.Fatalf("lagged follower refused a read: %v", err)
	}
	if len(ids) != 6 {
		t.Fatalf("lagged follower lists %d docs, want 6", len(ids))
	}
	if _, err := fc.Lineage("doc-000", "ex:model", provstore.Ancestors, 0); err != nil {
		t.Fatalf("lagged follower refused lineage: %v", err)
	}

	// The status poll must observe the primary's advanced tail.
	waitFor(t, 5*time.Second, func() bool {
		return f.Status().PrimaryLastSeq > caughtUp
	}, "follower status poll never saw the primary advance")

	st := f.Status()
	if st.Role != repl.RoleFollower {
		t.Fatalf("role = %q", st.Role)
	}
	if st.AppliedSeq != caughtUp {
		t.Fatalf("applied seq = %d, want %d", st.AppliedSeq, caughtUp)
	}
	if want := primary.store.AppliedSeq() - caughtUp; st.FollowerLag != want {
		t.Fatalf("lag = %d records, want %d", st.FollowerLag, want)
	}

	// Mutations on the follower get 403 with a Location hint.
	req, err := http.NewRequest(http.MethodPut, fhttp.URL+"/api/v0/documents/x", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("mutation on follower = HTTP %d, want 403", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, primary.http.URL) {
		t.Fatalf("Location hint = %q, want primary prefix %q", loc, primary.http.URL)
	}

	// /healthz reports degraded once lag exceeds -max-lag.
	hr, err := http.Get(fhttp.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz on lagged follower = HTTP %d, want 503", hr.StatusCode)
	}
}

// TestPartitionedFollowerReportsDegraded: during a partition the lag
// figures freeze at the last successful primary contact, so /healthz
// must degrade on contact staleness, not only on the (frozen, small)
// lag number.
func TestPartitionedFollowerReportsDegraded(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1})
	if err := primary.store.Put("doc", testDoc(t, "doc")); err != nil {
		t.Fatal(err)
	}
	fs := startFollowerStore(t, t.TempDir(), primary.http.URL, 0, false)
	defer fs.Close()

	cfg := followerConfig(primary.http.URL, "cutoff", false)
	cfg.StaleAfter = 50 * time.Millisecond
	f, err := repl.NewFollower(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()
	waitApplied(t, fs, primary.store.AppliedSeq())

	fsvc := provservice.New(fs, provservice.WithReplicationFollower(f, primary.http.URL, 1000))
	fhttp := httptest.NewServer(fsvc)
	defer fhttp.Close()

	// Partition: the primary vanishes entirely (streams cut, status
	// polls fail). Lag stays tiny — applied == the frozen last seq —
	// but contact age grows past StaleAfter.
	primary.stop(t)
	waitFor(t, 5*time.Second, func() bool {
		resp, err := http.Get(fhttp.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	}, "partitioned follower never degraded on /healthz despite zero reported lag")
	if st := f.Status(); !st.Stale || st.FollowerLag > 0 {
		t.Fatalf("expected stale with frozen lag, got stale=%v lag=%d", st.Stale, st.FollowerLag)
	}
}

// TestReBootstrapSameIDResetsCompactionFloor: wiping a follower's data
// dir and re-bootstrapping under the SAME id must reset its primary-
// side ack entry — otherwise the old high ack keeps the compaction
// floor above the snapshot the replica just downloaded, and the next
// checkpoint compacts away the tail it is about to request.
func TestReBootstrapSameIDResetsCompactionFloor(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1, SegmentBytes: 256})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.store.Checkpoint(); err != nil { // snapshot at seq 10
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ { // tail NOT covered by a newer snapshot
		id := fmt.Sprintf("doc-%03d", i)
		if err := primary.store.Put(id, testDoc(t, id)); err != nil {
			t.Fatal(err)
		}
	}

	// First life: follower "rb" catches up to seq 20 and acks it.
	dir1 := t.TempDir()
	fs1 := startFollowerStore(t, dir1, primary.http.URL, 0, false)
	f1, err := repl.NewFollower(fs1, followerConfig(primary.http.URL, "rb", false))
	if err != nil {
		t.Fatal(err)
	}
	go f1.Run()
	waitApplied(t, fs1, primary.store.AppliedSeq())
	waitFor(t, 5*time.Second, func() bool {
		for _, fi := range primary.repl.Status().Followers {
			if fi.ID == "rb" && fi.AckedSeq >= primary.store.AppliedSeq() {
				return true
			}
		}
		return false
	}, "follower ack never reached the primary")
	f1.Stop()
	if err := fs1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: wiped data dir, same id. Bootstrap installs the OLD
	// snapshot (seq 10) and must reset the ack entry to 0...
	dir2 := t.TempDir()
	seq, err := repl.Bootstrap(dir2, primary.http.URL, "rb")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 {
		t.Fatalf("bootstrap snapshot seq = %d, want 10", seq)
	}
	// ...so this checkpoint+compact cannot delete records 11..20 out
	// from under the rebooted replica.
	if err := primary.store.Put("doc-020", testDoc(t, "doc-020")); err != nil {
		t.Fatal(err)
	}
	if err := primary.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fs2, err := provstore.Open(dir2, provstore.Durability{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	f2, err := repl.NewFollower(fs2, followerConfig(primary.http.URL, "rb", false))
	if err != nil {
		t.Fatal(err)
	}
	go f2.Run()
	defer f2.Stop()
	waitApplied(t, fs2, primary.store.AppliedSeq())
	assertIdentical(t, primary.store, fs2)
	if msg := f2.Status().LastStreamError; strings.Contains(msg, "compacted") {
		t.Fatalf("re-bootstrap hit the stale-floor compaction race: %s", msg)
	}
}

// TestFsyncMismatchRefused: a no-fsync follower of an fsync primary
// must refuse to replicate rather than silently weaken durability.
func TestFsyncMismatchRefused(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{Fsync: true, SnapshotEvery: -1})
	if err := primary.store.Put("doc", testDoc(t, "doc")); err != nil {
		t.Fatal(err)
	}

	fs := startFollowerStore(t, t.TempDir(), primary.http.URL, 0, false)
	defer fs.Close()
	f, err := repl.NewFollower(fs, followerConfig(primary.http.URL, "unsafe", false))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()

	waitFor(t, 5*time.Second, func() bool {
		return strings.Contains(f.Status().LastStreamError, "fsync")
	}, "fsync mismatch never surfaced")
	if fs.AppliedSeq() != 0 {
		t.Fatalf("mismatched follower applied %d records, want 0", fs.AppliedSeq())
	}

	// The same primary with a matching follower works.
	fs2 := startFollowerStore(t, t.TempDir(), primary.http.URL, 0, true)
	defer fs2.Close()
	f2, err := repl.NewFollower(fs2, followerConfig(primary.http.URL, "safe", true))
	if err != nil {
		t.Fatal(err)
	}
	go f2.Run()
	defer f2.Stop()
	waitApplied(t, fs2, primary.store.AppliedSeq())
}

// TestFollowerRejectsLocalMutations: the store-level guard, independent
// of the HTTP layer.
func TestFollowerRejectsLocalMutations(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1})
	fs := startFollowerStore(t, t.TempDir(), primary.http.URL, 0, false)
	defer fs.Close()
	if err := fs.Put("x", testDoc(t, "x")); !errors.Is(err, provstore.ErrReadOnly) {
		t.Fatalf("Put on follower = %v, want ErrReadOnly", err)
	}
	if err := storeDelete(fs, "x"); !errors.Is(err, provstore.ErrReadOnly) {
		t.Fatalf("Delete on follower = %v, want ErrReadOnly", err)
	}
	if err := fs.PutBatch(map[string]*prov.Document{"x": testDoc(t, "x")}); !errors.Is(err, provstore.ErrReadOnly) {
		t.Fatalf("PutBatch on follower = %v, want ErrReadOnly", err)
	}
	if err := fs.Apply(context.Background(), []provstore.Op{{ID: "x"}}); !errors.Is(err, provstore.ErrReadOnly) {
		t.Fatalf("Apply delete on follower = %v, want ErrReadOnly", err)
	}
}

// TestReadYourWritesAcrossReplicas: a read that carries a write's
// X-Yprov-Seq token as X-Yprov-Min-Seq is refused with 503 by a replica
// that has not applied that write, and answered by the primary — so a
// caller that fails over on 503 never observes the past.
func TestReadYourWritesAcrossReplicas(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1})
	if err := primary.store.Put("seed", testDoc(t, "seed")); err != nil {
		t.Fatal(err)
	}

	fs := startFollowerStore(t, t.TempDir(), primary.http.URL, 0, false)
	defer fs.Close()
	f, err := repl.NewFollower(fs, followerConfig(primary.http.URL, "ryw", false))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	waitApplied(t, fs, primary.store.AppliedSeq())
	fsvc := provservice.New(fs, provservice.WithReplicationFollower(f, primary.http.URL, 0))
	fhttp := httptest.NewServer(fsvc)
	defer fhttp.Close()

	// Freeze the replica, then write to the primary.
	f.Stop()
	writer := provclient.New(primary.http.URL)
	if err := writer.Upload("fresh", testDoc(t, "fresh")); err != nil {
		t.Fatal(err)
	}
	token := writer.LastSeq()
	if token == 0 {
		t.Fatal("write returned no X-Yprov-Seq token")
	}

	getWithToken := func(base string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+"/api/v0/documents/fresh", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Yprov-Min-Seq", strconv.FormatUint(token, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if status, body := getWithToken(fhttp.URL); status != http.StatusServiceUnavailable {
		t.Fatalf("lagged replica answered a min-seq %d read with %d, want 503: %s", token, status, body)
	}
	if status, body := getWithToken(primary.http.URL); status != http.StatusOK {
		t.Fatalf("primary answered a min-seq %d read with %d, want 200: %s", token, status, body)
	}
	// Without the token the lagged replica answers from the past: a 404
	// for the document it has not applied.
	if _, err := provclient.New(fhttp.URL).Get("fresh"); err == nil {
		t.Fatal("expected the frozen replica to miss the fresh document")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storeGet and storeDelete are one-document reads and deletes through
// the store's View and Apply.
func storeGet(s *provstore.Store, id string) (*prov.Document, bool) {
	v, ok := s.View(id)
	return v.Document(), ok
}

func storeDelete(s *provstore.Store, id string) error {
	return s.Apply(context.Background(), []provstore.Op{{ID: id}})
}
