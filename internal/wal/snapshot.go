package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// snapshotMagic opens every snapshot file; a version bump changes the
// trailing digit.
var snapshotMagic = [8]byte{'Y', 'P', 'W', 'S', 'N', 'A', 'P', '1'}

// snapshotHeader is magic(8) + seq(8) + payloadLen(8) + crc32c(4).
const snapshotHeader = 28

// tmpInfix follows the final name in the name of a writeFileAtomic temp
// file; os.CreateTemp appends a random number.
const tmpInfix = ".tmp"

// writeFileAtomic writes the concatenation of chunks to path via a
// temp file in the same directory (write, fsync, rename, directory
// fsync): a crash leaves either the old file or the complete new one
// under the live name, never a partial — and possibly the temp file,
// which only a returned error removes.
func writeFileAtomic(path string, chunks ...[]byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+tmpInfix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	for _, c := range chunks {
		if _, err = f.Write(c); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// WriteSnapshotTo writes one snapshot file covering every record with
// sequence <= seq into dir, atomically (see writeFileAtomic).
func WriteSnapshotTo(dir string, seq uint64, payload []byte) error {
	var hdr [snapshotHeader]byte
	copy(hdr[0:8], snapshotMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(payload, castagnoli))
	if err := writeFileAtomic(filepath.Join(dir, snapshotName(seq)), hdr[:], payload); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// removeSnapshotTemps deletes the temp files of snapshot writes that a
// killed process left in dir. Each is as large as the store, nothing
// reads them and no later write reuses their names. The caller holds the
// directory lock, so none belongs to a write in progress.
func removeSnapshotTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !isSnapshotTemp(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: remove stale snapshot temp: %w", err)
		}
	}
	return nil
}

// isSnapshotTemp reports whether name is one writeFileAtomic can have
// given the temp file of a snapshot: a snapshot name, tmpInfix, then
// nothing but digits. Anything else in the directory is not the log's to
// delete — a pre-WAL document file left beside an upgraded journal may
// be named "x.snap.tmp1.json".
func isSnapshotTemp(name string) bool {
	snap, random, ok := strings.Cut(name, tmpInfix)
	if !ok {
		return false
	}
	if _, ok := parseSeqName(snap, snapshotSuffix); !ok {
		return false
	}
	return strings.Trim(random, "0123456789") == ""
}

// WriteSnapshot is WriteSnapshotTo on the open log: it flushes pending
// records, stamps the snapshot, rotates the active segment so the
// covered records become compactable, and advances the snapshot
// horizon. seq must not exceed the last staged sequence.
func (l *Log) WriteSnapshot(seq uint64, payload []byte) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if err := l.flushAndSync(); err != nil {
		return err
	}
	if seq > l.lastWritten {
		return fmt.Errorf("wal: snapshot seq %d ahead of log tail %d", seq, l.lastWritten)
	}
	if err := WriteSnapshotTo(l.dir, seq, payload); err != nil {
		return err
	}
	if seq > l.snapSeq {
		l.snapSeq = seq
	}
	// Rotate a non-empty active segment so its records (all <= the
	// snapshot horizon once seq == lastWritten) can be compacted.
	if l.fSize > 0 {
		if err := l.rotate(l.lastWritten + 1); err != nil {
			return err
		}
	}
	l.statsMu.Lock()
	l.snaps++
	l.statsMu.Unlock()
	return nil
}

// readSnapshot validates and returns a snapshot file's payload and the
// sequence number it covers.
func readSnapshot(path string) ([]byte, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: read snapshot %s: %w", path, err)
	}
	if len(data) < snapshotHeader || [8]byte(data[0:8]) != snapshotMagic {
		return nil, 0, fmt.Errorf("wal: snapshot %s: bad header", path)
	}
	seq := binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint64(data[16:24])
	if uint64(len(data)-snapshotHeader) != n {
		return nil, 0, fmt.Errorf("wal: snapshot %s: truncated payload", path)
	}
	payload := data[snapshotHeader:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[24:28]) {
		return nil, 0, fmt.Errorf("wal: snapshot %s: checksum mismatch", path)
	}
	return payload, seq, nil
}

// Compact deletes closed segments whose every record is covered by the
// latest snapshot, plus snapshots older than that snapshot. The active
// segment is never removed. Returns the number of segments deleted.
func (l *Log) Compact() (int, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	removed := 0
	// Segment i's last record is segs[i+1].firstSeq-1 by the rotation
	// invariant, so it is fully covered when that is <= snapSeq — and
	// releasable only once every tracked replication cursor has streamed
	// past it (see SetCompactFloor).
	floor := l.compactFloor.Load()
	for len(l.segs) > 1 && l.segs[1].firstSeq-1 <= l.snapSeq && l.segs[1].firstSeq-1 <= floor {
		if err := os.Remove(l.segs[0].path); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	// Retire superseded snapshots.
	_, snaps, err := scanDir(l.dir)
	if err != nil {
		return removed, err
	}
	for _, sn := range snaps {
		if sn.seq < l.snapSeq {
			if err := os.Remove(sn.path); err != nil && !os.IsNotExist(err) {
				return removed, fmt.Errorf("wal: compact: %w", err)
			}
		}
	}
	if removed > 0 {
		syncDir(l.dir)
	}
	l.statsMu.Lock()
	l.removed += uint64(removed)
	l.statsMu.Unlock()
	return removed, nil
}
