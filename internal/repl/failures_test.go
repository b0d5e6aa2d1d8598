package repl_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/provstore"
	"repro/internal/repl"
	"repro/internal/wal"
)

// TestAppliedRecordClearsFailures: once a record from the primary is
// applied, the follower reports no consecutive failures, even while
// that record's local commit still waits on a slow fsync. Before, the
// count was cleared only after the commit, so a reader that saw
// AppliedSeq catch up could still see the partition's failures.
func TestAppliedRecordClearsFailures(t *testing.T) {
	primary := startPrimary(t, t.TempDir(), provstore.Durability{SnapshotEvery: -1})
	if err := primary.store.Put("d0", testDoc(t, "d0")); err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.Listen("127.0.0.1:0", strings.TrimPrefix(primary.http.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	url := "http://" + proxy.Addr()

	dir := t.TempDir()
	if _, err := repl.Bootstrap(dir, url, "slow-sync"); err != nil {
		t.Fatal(err)
	}
	disk := wal.NewFaultFS(nil)
	fs, err := provstore.Open(dir, provstore.Durability{Fsync: true, Follower: true, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := repl.NewFollower(fs, followerConfig(url, "slow-sync", true))
	if err != nil {
		t.Fatal(err)
	}
	go f.Run()
	defer f.Stop()
	waitApplied(t, fs, primary.store.AppliedSeq())

	proxy.Partition()
	waitFor(t, 5*time.Second, func() bool { return f.Status().ConsecutiveFailures > 0 },
		"a partitioned follower never reported a failure")
	disk.SlowSyncs(500 * time.Millisecond)
	defer disk.Clear()
	if err := primary.store.Put("d1", testDoc(t, "d1")); err != nil {
		t.Fatal(err)
	}
	proxy.Heal()
	waitApplied(t, fs, primary.store.AppliedSeq())
	if n := f.Status().ConsecutiveFailures; n != 0 {
		t.Fatalf("%d consecutive failures reported beside an applied record", n)
	}
}
