package provstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"
)

// Binary WAL record codec. The WAL's frame format is
// length|crc32c|seq|payload; every payload this build writes opens with
// recBinaryTag and is the compact binary envelope below. It is the one
// format recovery, replication and the snapshot decoder read: a payload
// or a doc blob that opens with '{' (0x7B) is what an earlier build
// wrote, and is refused with ErrLegacyFormat before anything is applied
// or staged. Only Upgrade (upgrade.go) reads those, through the same
// envelope walkers with a decoder that also takes JSON.
//
// Envelope layout (varints are unsigned LEB128 via encoding/binary):
//
//	byte    recBinaryTag (0x01)
//	byte    op            recOpPut | recOpDelete | recOpBatch
//	varint  len + bytes   trace id (empty = untraced)
//	put:    varint shard, varint len + id, varint len + doc blob
//	delete: varint shard, varint len + id
//	batch:  varint n, then per sub-op:
//	        byte op (put/delete), varint shard, varint len + id,
//	        puts: varint len + doc blob
//
// A doc blob is the compact document codec (prov.AppendBinary), tagged
// prov.BinaryDocTag: the blob the entry keeps (entry.blob), indexed as
// it is (prov.IndexBinary). Snapshots reuse the same convention (see
// appendSnapshot / decodeSnapshot).
const (
	recBinaryTag = 0x01

	recOpPut    = 1
	recOpDelete = 2
	recOpBatch  = 3
)

// opBufPool recycles record-encode scratch buffers across mutations.
// wal.Stage copies the payload into the log's pending buffer before
// returning, so a staged buffer can be recycled as soon as staging is
// done — the journal-encode path then costs zero steady-state
// allocations. Oversized buffers (a huge batch) are dropped rather than
// pinned in the pool.
var opBufPool = sync.Pool{
	New: func() interface{} { b := make([]byte, 0, 1024); return &b },
}

const maxPooledOpBuf = 1 << 20

func getOpBuf() []byte { return (*(opBufPool.Get().(*[]byte)))[:0] }

func putOpBuf(b []byte) {
	if cap(b) > maxPooledOpBuf {
		return
	}
	b = b[:0]
	opBufPool.Put(&b)
}

func appendLenString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRecord encodes ops as one journal record into dst: a plain put
// or delete record for a single op, a batch envelope otherwise. entries
// runs parallel to ops, nil for a delete, and each put's entry blob is
// appended verbatim. Each op carries the index of the shard that owns it
// under mask — a write-time hint, never routing truth.
func appendRecord(dst []byte, ops []Op, entries []*entry, mask uint32, trace string) []byte {
	need := len(trace) + 16
	for i := range ops {
		need += len(ops[i].ID) + 16
		if entries[i] != nil {
			need += len(entries[i].blob)
		}
	}
	dst = slices.Grow(dst, need)
	if len(ops) == 1 {
		dst = append(dst, recBinaryTag, recOpByte(entries[0]))
		dst = appendLenString(dst, trace)
		return appendOpBody(dst, ops[0].ID, entries[0], mask)
	}
	dst = append(dst, recBinaryTag, recOpBatch)
	dst = appendLenString(dst, trace)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	for i := range ops {
		dst = append(dst, recOpByte(entries[i]))
		dst = appendOpBody(dst, ops[i].ID, entries[i], mask)
	}
	return dst
}

func recOpByte(e *entry) byte {
	if e == nil {
		return recOpDelete
	}
	return recOpPut
}

// appendOpBody appends what put/delete records and batch sub-ops share:
// shard hint, id and, for a put (e non-nil), the doc blob.
func appendOpBody(dst []byte, id string, e *entry, mask uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(shardHash(id)&mask))
	dst = appendLenString(dst, id)
	if e == nil {
		return dst
	}
	return appendBlob(dst, e.blob)
}

// appendBlob appends a doc blob behind its fixed-width 4-byte length.
func appendBlob(dst []byte, blob []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blob)))
	return append(dst, blob...)
}

// The fewest bytes one batch sub-op and one snapshot document encode
// in, so a count of more than the bytes left could hold is corrupt —
// caught before it sizes an allocation.
const (
	minSubOpBytes       = 3 // op, shard, id length
	minSnapshotDocBytes = 5 // id length, 4-byte blob length
)

// opHeapBytes is what one decoded op takes in a mutation's two lists.
const opHeapBytes = int(unsafe.Sizeof(Op{}) + unsafe.Sizeof((*entry)(nil)))

// presize sizes m's op and entry lists for the n ops a record or
// snapshot declares in its left bytes, but to no more than those bytes:
// a count is only bounded by the wire size of the smallest op, a
// fraction of a decoded one, so a payload that declares more than it
// holds allocates about its own size before it fails. The ops it does
// hold grow the lists by append.
func (m *mutation) presize(n uint64, left int) {
	n = min(n, uint64(left/opHeapBytes))
	m.ops = make([]Op, 0, n)
	m.entries = make([]*entry, 0, n)
}

// recReader is a bounds-checked cursor over a binary record payload.
type recReader struct {
	buf []byte
	pos int
}

var errRecTruncated = fmt.Errorf("provstore: truncated binary record")

func (r *recReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errRecTruncated
	}
	r.pos += n
	return v, nil
}

func (r *recReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errRecTruncated
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *recReader) lenBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, errRecTruncated
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *recReader) lenString() (string, error) {
	b, err := r.lenBytes()
	return string(b), err
}

func (r *recReader) u32() (uint32, error) {
	if len(r.buf)-r.pos < 4 {
		return 0, errRecTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *recReader) blob() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(r.buf)-r.pos) {
		return nil, errRecTruncated
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// ErrLegacyFormat is how every decoder on the serving path refuses a
// record, snapshot or doc blob an earlier build wrote, and how Open
// refuses a pre-WAL directory. Upgrade converts such a directory.
var ErrLegacyFormat = errors.New("provstore: on-disk format of an earlier build; convert the data directory offline with `yprov upgrade DIR`")

// entryReader builds the entry storing under id the doc blob a record
// or snapshot carries, a slice of its buffer.
type entryReader func(id string, blob []byte) (*entry, error)

// blobEntry is the serving path's entryReader: the entry of a binary
// blob, which keeps an exactly sized copy of it — a slice of the record
// or snapshot would hold the whole buffer for as long as the entry
// lives.
func blobEntry(id string, blob []byte) (*entry, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("provstore: empty document blob")
	}
	if blob[0] == '{' {
		return nil, ErrLegacyFormat
	}
	kept := make([]byte, len(blob))
	copy(kept, blob)
	return newEntry(id, kept)
}

// decodeRecordPayload turns one journal/replication payload into a
// mutation whose entries are built — missing deletes tolerated, each
// binary blob kept by its entry (mutation.entries) — before anything is
// staged or applied:
// a malformed or legacy record is rejected while the store is still
// untouched. Both recovery replay and the follower apply path come
// through here.
func decodeRecordPayload(payload []byte, seq uint64) (mutation, error) {
	return decodeRecord(payload, seq, blobEntry)
}

// decodeRecord is the binary record walker, building each put's entry
// with blob.
func decodeRecord(payload []byte, seq uint64, blob entryReader) (mutation, error) {
	m := mutation{lenient: true}
	if err := decodeRecordInto(&m, payload, blob); err != nil {
		return mutation{}, fmt.Errorf("provstore: record seq %d: %w", seq, err)
	}
	return m, nil
}

func decodeRecordInto(m *mutation, payload []byte, blob entryReader) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty payload")
	}
	if payload[0] == '{' {
		return ErrLegacyFormat
	}
	if payload[0] != recBinaryTag {
		return fmt.Errorf("unknown payload tag 0x%02x", payload[0])
	}
	r := &recReader{buf: payload, pos: 1}
	opByte, err := r.byte()
	if err != nil {
		return err
	}
	if m.trace, err = r.lenString(); err != nil {
		return err
	}
	switch opByte {
	case recOpPut, recOpDelete:
		if err := decodeOpBody(m, r, opByte, blob); err != nil {
			return err
		}
	case recOpBatch:
		n, err := r.u32()
		if err != nil {
			return err
		}
		if uint64(n) > uint64((len(payload)-r.pos)/minSubOpBytes) {
			return fmt.Errorf("batch count %d exceeds payload", n)
		}
		m.presize(uint64(n), len(payload)-r.pos)
		for i := uint32(0); i < n; i++ {
			ob, err := r.byte()
			if err != nil {
				return err
			}
			if ob != recOpPut && ob != recOpDelete {
				return fmt.Errorf("bad batch sub-op 0x%02x", ob)
			}
			if err := decodeOpBody(m, r, ob, blob); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown op 0x%02x", opByte)
	}
	if r.pos != len(payload) {
		return fmt.Errorf("%d trailing bytes", len(payload)-r.pos)
	}
	return nil
}

// decodeOpBody reads one put/delete body (see appendOpBody) onto m.ops
// and, for a put, builds its entry onto m.entries. The recorded shard
// hint is skipped: placement is re-derived from the id hash.
func decodeOpBody(m *mutation, r *recReader, opByte byte, blob entryReader) error {
	if _, err := r.uvarint(); err != nil {
		return err
	}
	id, err := r.lenString()
	if err != nil {
		return err
	}
	var e *entry
	if opByte == recOpPut {
		b, err := r.blob()
		if err != nil {
			return err
		}
		if e, err = blob(id, b); err != nil {
			return fmt.Errorf("%q: %w", id, err)
		}
	}
	m.ops = append(m.ops, Op{ID: id})
	m.entries = append(m.entries, e)
	return nil
}

// appendSnapshot encodes the full-state snapshot in binary: tag, the
// writer's shard count, then per entry a length-prefixed id and the
// entry's blob. dst grows once, to a size worked out from the blob
// lengths.
func appendSnapshot(dst []byte, entries []*entry, shards int) []byte {
	need := 32
	for _, e := range entries {
		need += len(e.id) + len(e.blob) + 16
	}
	dst = slices.Grow(dst, need)
	dst = append(dst, recBinaryTag)
	dst = binary.AppendUvarint(dst, uint64(shards))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = appendLenString(dst, e.id)
		dst = appendBlob(dst, e.blob)
	}
	return dst
}

// decodeSnapshot turns a binary snapshot payload into one mutation of
// puts, building each document's entry as it walks (mutation.entries):
// no decoded document is held, and none is made.
func decodeSnapshot(payload []byte) (mutation, error) {
	return decodeSnapshotWith(payload, blobEntry)
}

// decodeSnapshotWith is the binary snapshot walker, building each
// document's entry with blob.
func decodeSnapshotWith(payload []byte, blob entryReader) (mutation, error) {
	m := mutation{lenient: true}
	if err := decodeSnapshotInto(&m, payload, blob); err != nil {
		return mutation{}, fmt.Errorf("provstore: recover snapshot: %w", err)
	}
	return m, nil
}

func decodeSnapshotInto(m *mutation, payload []byte, blob entryReader) error {
	if len(payload) == 0 {
		return nil
	}
	if payload[0] == '{' {
		return ErrLegacyFormat
	}
	if payload[0] != recBinaryTag {
		return fmt.Errorf("unknown payload tag 0x%02x", payload[0])
	}
	r := &recReader{buf: payload, pos: 1}
	if _, err := r.uvarint(); err != nil { // writer's shard count: informational
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64((len(payload)-r.pos)/minSnapshotDocBytes) {
		return fmt.Errorf("doc count %d exceeds payload", n)
	}
	m.presize(n, len(payload)-r.pos)
	for i := uint64(0); i < n; i++ {
		id, err := r.lenString()
		if err != nil {
			return err
		}
		b, err := r.blob()
		if err != nil {
			return fmt.Errorf("doc %q: %w", id, err)
		}
		e, err := blob(id, b)
		if err != nil {
			return fmt.Errorf("doc %q: %w", id, err)
		}
		m.ops = append(m.ops, Op{ID: id})
		m.entries = append(m.entries, e)
	}
	if r.pos != len(payload) {
		return fmt.Errorf("%d trailing bytes", len(payload)-r.pos)
	}
	return nil
}
