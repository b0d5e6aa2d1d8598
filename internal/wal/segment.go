package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	// recordHeader is length(4) + crc32c(4) + seq(8).
	recordHeader = 16
	// maxRecordBytes caps a single payload so a corrupt length field
	// cannot trigger an absurd allocation during recovery.
	maxRecordBytes = 1 << 30

	segmentSuffix  = ".wal"
	snapshotSuffix = ".snap"
)

// castagnoli is the CRC32C table (same polynomial as iSCSI, ext4, and
// every production WAL; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segmentName(firstSeq uint64) string { return fmt.Sprintf("%016x%s", firstSeq, segmentSuffix) }
func snapshotName(lastSeq uint64) string { return fmt.Sprintf("%016x%s", lastSeq, snapshotSuffix) }
func parseSeqName(name, suffix string) (uint64, bool) {
	base := strings.TrimSuffix(name, suffix)
	if base == name || len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 16, 64)
	return seq, err == nil
}

// appendRecord frames (seq, payload) onto buf.
func appendRecord(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// EncodeFrame appends the on-disk/wire framing of (seq, payload) to dst
// and returns the extended slice. The bytes are identical to what the
// log writes into its segments, which is what lets the replication
// stream ship records verbatim in the WAL's own format.
func EncodeFrame(dst []byte, seq uint64, payload []byte) []byte {
	return appendRecord(dst, seq, payload)
}

// frameStatus classifies one attempted frame parse.
type frameStatus int

const (
	frameOK      frameStatus = iota
	frameShort               // not enough bytes for a complete frame
	frameCorrupt             // complete-length frame with a bad checksum
)

// parseFrame reads one framed record from the front of data. The
// returned n is a total frame size (header + payload): the parsed
// frame's when status is frameOK, and when status is frameShort the size
// the frame data begins with needs, once data holds its whole header (0
// before). The payload slice aliases data — callers that retain it must
// copy. It is the one definition of a valid frame: segment recovery,
// the search for intact frames behind a torn tail, the SegmentReader and
// the network StreamScanner all parse with it.
func parseFrame(data []byte) (seq uint64, payload []byte, n int, status frameStatus) {
	if len(data) < recordHeader {
		return 0, nil, 0, frameShort
	}
	pl := int(binary.LittleEndian.Uint32(data[0:4]))
	if pl > maxRecordBytes {
		// An absurd length field cannot be a partial write of a sane
		// record; treat it as corruption, not a short read.
		return 0, nil, 0, frameCorrupt
	}
	if recordHeader+pl > len(data) {
		return 0, nil, recordHeader + pl, frameShort
	}
	want := binary.LittleEndian.Uint32(data[4:8])
	if crc32.Checksum(data[8:recordHeader+pl], castagnoli) != want {
		return 0, nil, 0, frameCorrupt
	}
	seq = binary.LittleEndian.Uint64(data[8:16])
	return seq, data[recordHeader : recordHeader+pl], recordHeader + pl, frameOK
}

// scanResult is one segment's recovery outcome.
type scanResult struct {
	records  []Record
	validLen int64 // byte offset of the first invalid record (== size when clean)
	torn     bool  // file ends in a torn/corrupt record
	// corrupt distinguishes mid-data damage from a torn write: a valid
	// record frame exists AFTER the invalid bytes, so what precedes it
	// cannot be an interrupted final write — truncating would discard
	// acknowledged records that are still intact on disk.
	corrupt bool
}

// scanSegment reads every valid record in the file. Sequence numbers
// are dense by construction (one record per staged sequence, in order),
// so after the segment's first record each successor must be exactly
// prev+1; any framing, checksum, or density violation marks the rest of
// the file torn (the caller decides truncate-vs-fail based on whether
// this is the final segment). Cross-segment continuity is the caller's
// job — the first record of a segment is unconstrained here, because
// truncating at a boundary mismatch would destroy data that a loud
// failure should protect.
func scanSegment(path string) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("wal: read segment %s: %w", path, err)
	}
	var res scanResult
	off := 0
	prevSeq := uint64(0)
	for {
		seq, p, n, status := parseFrame(data[off:])
		if status != frameOK {
			res.torn = off < len(data)
			break
		}
		if prevSeq != 0 && seq != prevSeq+1 {
			res.torn = true
			break
		}
		payload := make([]byte, len(p))
		copy(payload, p)
		res.records = append(res.records, Record{Seq: seq, Payload: payload})
		prevSeq = seq
		off += n
	}
	res.validLen = int64(off)
	if res.torn && hasValidFrameAfter(data, off+1, prevSeq) {
		res.corrupt = true
	}
	return res, nil
}

// hasValidFrameAfter reports whether any byte offset >= start parses as
// a CRC-valid record frame with a plausible (later) sequence number. A
// genuinely torn tail — a write the crash interrupted — has only
// garbage after the tear; finding an intact later frame means the
// invalid bytes are bit-rot sitting in front of acknowledged records,
// which recovery must refuse to truncate. A chance CRC match in random
// garbage (~2^-32 per offset) errs toward the loud failure, never
// toward data loss.
func hasValidFrameAfter(data []byte, start int, prevSeq uint64) bool {
	for off := start; off+recordHeader <= len(data); off++ {
		if seq, _, _, status := parseFrame(data[off:]); status == frameOK && seq > prevSeq {
			return true
		}
	}
	return false
}

// snapshotEntry is an on-disk snapshot candidate.
type snapshotEntry struct {
	seq  uint64
	path string
}

// scanDir lists segments (sorted by first sequence) and snapshots
// (sorted by sequence) under dir, ignoring everything else.
func scanDir(dir string) ([]segmentInfo, []snapshotEntry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: scan %s: %w", dir, err)
	}
	var segs []segmentInfo
	var snaps []snapshotEntry
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeqName(e.Name(), segmentSuffix); ok {
			info, err := e.Info()
			if err != nil {
				return nil, nil, fmt.Errorf("wal: stat %s: %w", e.Name(), err)
			}
			segs = append(segs, segmentInfo{firstSeq: seq, path: filepath.Join(dir, e.Name()), size: info.Size()})
			continue
		}
		if seq, ok := parseSeqName(e.Name(), snapshotSuffix); ok {
			snaps = append(snaps, snapshotEntry{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return segs, snaps, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Errors are swallowed: some filesystems reject directory
// fsync, and losing it only weakens crash-atomicity to what the
// filesystem journal already provides.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
