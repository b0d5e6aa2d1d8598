package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestTornTailEveryByteOffset is the core crash-safety property: a log
// whose final segment is cut at ANY byte offset must recover exactly
// the longest prefix of whole records, repair the file, and accept new
// appends afterwards — never fail, never resurrect a partial record.
func TestTornTailEveryByteOffset(t *testing.T) {
	master := t.TempDir()
	l, _ := mustOpen(t, master, Options{Fsync: true})
	const n = 12
	recSizes := make([]int64, n) // framed size of each record
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("payload-%02d-%s", i, string(make([]byte, i))))
		recSizes[i] = int64(recordHeader + len(payload))
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _, err := scanDir(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segs=%d err=%v", len(segs), err)
	}
	full, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}

	// wholeRecordsAt(k) = how many records fit entirely in the first k bytes.
	wholeAt := func(k int64) int {
		var off int64
		count := 0
		for _, sz := range recSizes {
			if off+sz <= k {
				off += sz
				count++
			} else {
				break
			}
		}
		return count
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0].path)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		want := wholeAt(cut)
		if len(rec.Records) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(rec.Records), want)
		}
		wantRepair := wholeRecordBoundary(recSizes, cut) != cut
		if rec.Repaired != wantRepair {
			t.Fatalf("cut=%d: repaired=%v, want %v", cut, rec.Repaired, wantRepair)
		}
		// The log must be appendable after repair and a further reopen
		// must see old prefix + new record.
		seq, err := l2.Append([]byte("post-crash"))
		if err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		if seq != uint64(want+1) {
			t.Fatalf("cut=%d: post-repair seq=%d, want %d", cut, seq, want+1)
		}
		l2.Close()
		_, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: second open: %v", cut, err)
		}
		if len(rec2.Records) != want+1 || string(rec2.Records[want].Payload) != "post-crash" {
			t.Fatalf("cut=%d: second recovery got %d records", cut, len(rec2.Records))
		}
	}
}

// wholeRecordBoundary returns the largest record boundary <= k.
func wholeRecordBoundary(sizes []int64, k int64) int64 {
	var off int64
	for _, sz := range sizes {
		if off+sz <= k {
			off += sz
		} else {
			break
		}
	}
	return off
}

// TestTornTailWithGarbage covers bit-rot rather than truncation: flip a
// byte anywhere in the final record and recovery must drop exactly that
// record.
func TestTornTailGarbageTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: true})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(dir)
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x5A // corrupt last record's payload
	if err := os.WriteFile(segs[0].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Records) != 4 || !rec.Repaired {
		t.Fatalf("recovered %d records, repaired=%v", len(rec.Records), rec.Repaired)
	}
}

// TestMidLogCorruptionFails: damage in a NON-final segment is real data
// loss, not a torn tail — recovery must refuse rather than silently
// drop acknowledged records.
func TestMidLogCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeader] ^= 0xFF // first record's payload in the FIRST segment
	if err := os.WriteFile(segs[0].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-log corruption was silently accepted")
	}
}

// TestStaleSnapshotTempRemoved: a process killed between a snapshot's
// temp write and its rename leaves a store-sized <seq>.snap.tmp<random>
// behind. Open must delete it — nothing else ever would — and recover
// exactly what it recovers without it.
func TestStaleSnapshotTempRemoved(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(3, []byte("state@3")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	wantDisk := l.Stats().DiskBytes
	l.Close()

	// One named the way writeFileAtomic names them, one bare.
	temps := []string{
		filepath.Join(dir, snapshotName(4)+".tmp123456789"),
		filepath.Join(dir, snapshotName(4)+".tmp"),
	}
	for _, tmp := range temps {
		if err := os.WriteFile(tmp, make([]byte, 4096), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Not the log's: names that merely contain ".snap.tmp" — a pre-WAL
	// document file left beside an upgraded journal, the name an earlier
	// build's boot import renamed one to, a temp of something that is not
	// a snapshot.
	bystanders := []string{
		filepath.Join(dir, "ckpt.snap.tmp1.json"),
		filepath.Join(dir, snapshotName(4)+".tmp1.json"),
		filepath.Join(dir, snapshotName(4)+".tmp1.json.imported"),
		filepath.Join(dir, "run.snap.tmp42"),
		filepath.Join(dir, "x"+snapshotName(4)+".tmp42"),
	}
	for _, f := range bystanders {
		if err := os.WriteFile(f, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := HasState(dir); err != nil || !ok {
		t.Fatalf("HasState = %v, %v with leftovers", ok, err)
	}

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, tmp := range temps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("%s survived Open (stat err %v)", filepath.Base(tmp), err)
		}
	}
	for _, f := range bystanders {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s is not a snapshot temp, yet Open removed it: %v", filepath.Base(f), err)
		}
	}
	if rec.SnapshotSeq != 3 || string(rec.SnapshotPayload) != "state@3" ||
		len(rec.Records) != 1 || rec.Records[0].Seq != 4 || string(rec.Records[0].Payload) != "tail" {
		t.Fatalf("recovered snap=%d %q, tail %v", rec.SnapshotSeq, rec.SnapshotPayload, rec.Records)
	}
	if got := l2.Stats().DiskBytes; got != wantDisk {
		t.Errorf("DiskBytes = %d after the cleanup, %d before the crash", got, wantDisk)
	}
	if ok, err := HasState(dir); err != nil || !ok {
		t.Fatalf("HasState = %v, %v after the cleanup", ok, err)
	}
	// Only the leftovers went: snapshot and segments are all still there.
	segs, snaps, err := scanDir(dir)
	if err != nil || len(snaps) != 1 || len(segs) == 0 {
		t.Fatalf("after Open: %d segments, %d snapshots, err %v", len(segs), len(snaps), err)
	}
}

// TestEmptyActiveSegmentAfterRotationCrash: a crash right after
// rotation leaves a zero-byte active segment; recovery must treat it as
// clean and keep appending into it.
func TestEmptyActiveSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(make([]byte, 56)); err != nil { // each append rotates
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(dir)
	last := segs[len(segs)-1]
	if last.size != 0 {
		t.Fatalf("expected empty active segment, size=%d", last.size)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Records) != 4 || rec.Repaired {
		t.Fatalf("records=%d repaired=%v", len(rec.Records), rec.Repaired)
	}
	if seq, err := l2.Append([]byte("y")); err != nil || seq != 5 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
}

// TestReopenBetweenSnapshotAndCompact: a crash in the window after
// WriteSnapshot but before Compact leaves segments whose records the
// snapshot already covers. Reopening must succeed (they are legitimate,
// just superseded) and must not re-surface the covered records.
func TestReopenBetweenSnapshotAndCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(5, []byte("state@5")); err != nil {
		t.Fatal(err)
	}
	// Crash here: no Compact. The old segment still holds records 1-5.
	l.Close()

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen between snapshot and compact: %v", err)
	}
	if rec.SnapshotSeq != 5 || len(rec.Records) != 0 {
		t.Fatalf("snap=%d tail=%d, want 5/0", rec.SnapshotSeq, len(rec.Records))
	}
	// The next checkpoint cycle still compacts the stale segment.
	if _, err := l2.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteSnapshot(6, []byte("state@6")); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.Segments != 1 {
		t.Fatalf("stale segments survived compaction: %d", st.Segments)
	}
	l2.Close()
}

// TestMissingSegmentFailsLoudly: a deleted middle segment is a gap in
// acknowledged history — recovery must refuse, not silently skip it.
func TestMissingSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("missing middle segment was silently accepted")
	}
}

// TestCorruptSnapshotAfterCompactionFailsLoudly: if the only snapshot is
// corrupt and the pre-snapshot segments are already compacted away, the
// history cannot be reconstructed — recovery must fail, not quietly
// come back empty.
func TestCorruptSnapshotAfterCompactionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(5, []byte("state@5")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("tail")); err != nil { // seq 6, in new segment
		t.Fatal(err)
	}
	l.Close()
	snap := filepath.Join(dir, snapshotName(5))
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("unreconstructable history was silently accepted")
	}
}

// TestIOErrorPoisonsLog: after the first write failure nothing further
// may be staged or snapshotted — otherwise later writes would leave a
// sequence gap that recovery truncates acknowledged records at.
func TestIOErrorPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // yank the file out from under the log: next write fails
	if _, err := l.Append([]byte("boom")); err == nil {
		t.Fatal("write on closed file succeeded?")
	}
	if _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("poisoned log accepted a new record")
	}
	if err := l.WriteSnapshot(1, []byte("snap")); err == nil {
		t.Fatal("poisoned log accepted a snapshot")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("poisoned log reported a clean sync")
	}
}

// TestBitRotBeforeIntactRecordsIsFlagged: damage mid-way through the
// final segment with valid frames after it is ambiguous — it could be
// out-of-order writeback of an unacknowledged batch (must boot) or bit
// rot over acknowledged records (real loss). Recovery truncates like a
// torn tail but must raise SuspectBitRot so the operator is told.
func TestBitRotBeforeIntactRecordsIsFlagged(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: true})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(dir)
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the 3rd record's payload: records 4..10 stay
	// bit-perfect on disk after the damage.
	recSize := recordHeader + len("record-00")
	raw[2*recSize+recordHeader] ^= 0xFF
	if err := os.WriteFile(segs[0].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("ambiguous tail damage must not block boot: %v", err)
	}
	defer l2.Close()
	if len(rec.Records) != 2 || !rec.Repaired {
		t.Fatalf("recovered %d records, repaired=%v; want the 2-record prefix", len(rec.Records), rec.Repaired)
	}
	if !rec.SuspectBitRot {
		t.Fatal("intact frames after the damage were truncated without raising SuspectBitRot")
	}
}

// TestPlainTornTailNotFlagged: an ordinary truncation (no valid frames
// after the tear) must not raise the bit-rot suspicion.
func TestPlainTornTailNotFlagged(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("abcdefgh")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, _ := scanDir(dir)
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Repaired || rec.SuspectBitRot {
		t.Fatalf("repaired=%v suspect=%v; want repaired without suspicion", rec.Repaired, rec.SuspectBitRot)
	}
}
