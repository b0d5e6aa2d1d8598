package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// ErrCompacted reports that the requested records are no longer on
// disk: compaction deleted the segments that held them, so a reader
// positioned before the snapshot horizon must restart from a snapshot.
var ErrCompacted = errors.New("wal: requested records compacted away")

// readerChunk is how many bytes SegmentReader pulls from a segment file
// per refill; large enough that catch-up streaming is not syscall-bound.
const readerChunk = 256 << 10

// SegmentReader iterates framed records straight off a log directory's
// segment files, starting strictly after a given sequence number. It is
// the raw-record counterpart to Open's replay-to-store recovery (the
// two share the same frame parser) and the engine under the replication
// stream: recovery consumes records as store mutations, replication
// ships the same frames over HTTP.
//
// Next returns records in dense sequence order. io.EOF means "caught up
// with the log as written so far" — the reader keeps its position, so a
// caller tailing a live log can wait for the next commit and call Next
// again. A reader positioned before the oldest on-disk record fails
// with ErrCompacted.
//
// Reading races appends: the reader must only be driven past a sequence
// number the writer has published as committed (Log.CommittedSeq /
// WaitCommitted). Within that bound, a partial frame at the tail of the
// active segment simply reads as io.EOF.
type SegmentReader struct {
	dir  string
	last uint64 // last sequence returned; Next returns last+1

	f        *os.File
	path     string
	firstSeq uint64 // segment name of the open file
	off      int64  // file offset of pending[0]
	pending  []byte // bytes read from f but not yet parsed
	parsed   int    // bytes of pending already consumed
}

// NewSegmentReader positions a reader over dir so that the first Next
// returns the record with sequence after+1. The directory is consulted
// lazily, so constructing a reader for an empty (or not yet rotated-to)
// position is cheap and valid.
func NewSegmentReader(dir string, after uint64) *SegmentReader {
	return &SegmentReader{dir: dir, last: after}
}

// LastSeq reports the sequence number of the last record returned (or
// the initial position when none has been).
func (r *SegmentReader) LastSeq() uint64 { return r.last }

// Next returns the next record. The payload is freshly allocated and
// safe to retain. io.EOF = no complete next record on disk yet (see
// type comment); ErrCompacted = the position predates the oldest
// segment; any other error is unrecoverable corruption or IO failure.
func (r *SegmentReader) Next() (Record, error) {
	for {
		if r.f == nil {
			if err := r.openAt(r.last + 1); err != nil {
				return Record{}, err
			}
		}
		seq, payload, n, status := parseFrame(r.pending[r.parsed:])
		switch status {
		case frameOK:
			r.parsed += n
			if seq <= r.last {
				continue // positioned mid-segment: skip already-consumed records
			}
			if seq != r.last+1 {
				return Record{}, fmt.Errorf("wal: segment %s: sequence gap: read %d, want %d", r.path, seq, r.last+1)
			}
			r.last = seq
			rec := Record{Seq: seq, Payload: append([]byte(nil), payload...)}
			return rec, nil
		case frameShort:
			grew, err := r.refill()
			if err != nil {
				return Record{}, err
			}
			if grew {
				continue
			}
			// No more bytes in this file. Either the writer rotated past
			// it (a younger segment starts at last+1) or this is the live
			// tail (io.EOF, position kept for a later retry).
			advanced, err := r.advance()
			if err != nil {
				return Record{}, err
			}
			if !advanced {
				return Record{}, io.EOF
			}
		case frameCorrupt:
			// In the final (active) segment this can only be bytes of an
			// in-flight batch the committed bound should have kept us away
			// from — surface it as corruption rather than spinning.
			return Record{}, fmt.Errorf("wal: segment %s: corrupt record at offset %d", r.path, r.off+int64(r.parsed))
		}
	}
}

// openAt scans the directory and opens the segment holding seq: the
// youngest segment whose first sequence is <= seq. A directory whose
// oldest segment starts after seq has compacted the position away.
func (r *SegmentReader) openAt(seq uint64) error {
	segs, _, err := scanDir(r.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return io.EOF // nothing written yet; retryable
	}
	idx := -1
	for i := range segs {
		if segs[i].firstSeq <= seq {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: want seq %d, oldest segment starts at %d", ErrCompacted, seq, segs[0].firstSeq)
	}
	return r.open(segs[idx])
}

// open switches the reader to the given segment.
func (r *SegmentReader) open(seg segmentInfo) error {
	if r.f != nil {
		_ = r.f.Close()
	}
	f, err := os.Open(seg.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Compaction won the race between scanDir and Open.
			return fmt.Errorf("%w: segment %s removed", ErrCompacted, seg.path)
		}
		return fmt.Errorf("wal: open segment %s: %w", seg.path, err)
	}
	r.f = f
	r.path = seg.path
	r.firstSeq = seg.firstSeq
	r.off = 0
	r.pending = r.pending[:0]
	r.parsed = 0
	return nil
}

// refill compacts consumed bytes away and reads the next chunk from the
// current file, reporting whether any new bytes arrived.
func (r *SegmentReader) refill() (bool, error) {
	if r.parsed > 0 {
		r.off += int64(r.parsed)
		r.pending = r.pending[:copy(r.pending, r.pending[r.parsed:])]
		r.parsed = 0
	}
	have := len(r.pending)
	if cap(r.pending)-have < readerChunk {
		grown := make([]byte, have, have+readerChunk)
		copy(grown, r.pending)
		r.pending = grown
	}
	n, err := r.f.ReadAt(r.pending[have:have+readerChunk], r.off+int64(have))
	r.pending = r.pending[:have+n]
	if err != nil && err != io.EOF {
		return n > 0, fmt.Errorf("wal: read segment %s: %w", r.path, err)
	}
	return n > 0, nil
}

// advance moves to the segment starting at last+1 if rotation created
// one. By the rotation invariant a successor segment is named exactly
// lastWritten+1, so if a younger segment exists but none starts at
// last+1 the bytes in between were lost — corruption to fail loudly on.
func (r *SegmentReader) advance() (bool, error) {
	segs, _, err := scanDir(r.dir)
	if err != nil {
		return false, err
	}
	var younger bool
	for _, seg := range segs {
		if seg.firstSeq == r.last+1 && seg.path != r.path {
			return true, r.open(seg)
		}
		if seg.firstSeq > r.last+1 {
			younger = true
		}
	}
	if younger {
		return false, fmt.Errorf("wal: segment %s: no successor starting at seq %d but younger segments exist", r.path, r.last+1)
	}
	return false, nil
}

// Close releases the open segment file. The reader stays positionable:
// a later Next reopens at the saved sequence.
func (r *SegmentReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	r.pending = nil
	r.parsed = 0
	return err
}

// StreamScanner decodes WAL frames from a byte stream — the follower
// side of the replication protocol, where the frames arrive over HTTP
// instead of from a segment file. Checksums are verified frame by
// frame, so a corrupted transfer surfaces as an error, never as a bad
// record handed to the caller, and the first error ends the stream:
// every later Next returns it again.
type StreamScanner struct {
	r   *bufio.Reader
	hdr [recordHeader]byte
	err error
}

// streamChunk is the StreamScanner's read buffer size, and the most it
// allocates for a frame ahead of the frame's bytes.
const streamChunk = 64 << 10

// NewStreamScanner wraps rd for frame decoding.
func NewStreamScanner(rd io.Reader) *StreamScanner {
	return &StreamScanner{r: bufio.NewReaderSize(rd, streamChunk)}
}

// Buffered reports whether at least one byte of a further frame is
// already in memory — the follower uses this to group-commit its local
// journal writes exactly when the stream momentarily runs dry.
func (s *StreamScanner) Buffered() bool { return s.r.Buffered() > 0 }

// Next reads one frame: the header, then as many bytes as parseFrame
// says the frame needs. io.EOF at a clean end-of-stream; an error
// wrapping io.ErrUnexpectedEOF when the stream dies mid-frame.
func (s *StreamScanner) Next() (Record, error) {
	if s.err != nil {
		return Record{}, s.err
	}
	rec, err := s.next()
	s.err = err
	return rec, err
}

func (s *StreamScanner) next() (Record, error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("wal: stream header: %w", err)
	}
	frame := s.hdr[:]
	seq, payload, n, status := parseFrame(frame)
	if status == frameShort {
		// Past its first streamChunk bytes a frame is allocated as its
		// bytes arrive, so a length field a broken stream made up costs
		// no more memory than the stream sent.
		frame = append(make([]byte, 0, min(n, streamChunk)), frame...)
		for len(frame) < n {
			chunk := min(n-len(frame), max(len(frame), streamChunk))
			frame = slices.Grow(frame, chunk)
			if _, err := io.ReadFull(s.r, frame[len(frame):len(frame)+chunk]); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return Record{}, fmt.Errorf("wal: stream payload: %w", err)
			}
			frame = frame[:len(frame)+chunk]
		}
		seq, payload, _, status = parseFrame(frame)
	}
	if status != frameOK {
		return Record{}, fmt.Errorf("wal: stream record corrupt: length over the limit or checksum mismatch")
	}
	return Record{Seq: seq, Payload: payload}, nil
}
