package provstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/jsonscan"
	"repro/internal/prov"
	"repro/internal/wal"
)

// journalOp is one mutation as the first journal format logged it: a
// put, a delete, or a batch of them as one record.
type journalOp struct {
	Op    string          `json:"op"` // "put" | "delete" | "batch"
	ID    string          `json:"id,omitempty"`
	Shard uint32          `json:"shard,omitempty"` // write-time hint; absent in pre-sharding journals
	Doc   json.RawMessage `json:"doc,omitempty"`   // PROV-JSON for puts
	Ops   []journalOp     `json:"ops,omitempty"`   // sub-ops for batches
	Trace string          `json:"trace,omitempty"`
}

// storeSnapshot is the JSON snapshot payload of the same builds.
type storeSnapshot struct {
	Docs   map[string]json.RawMessage `json:"docs"`
	Shards int                        `json:"shards,omitempty"`
}

// Upgrade is the one reader of the on-disk formats earlier builds
// wrote, which Open refuses with ErrLegacyFormat: a pre-WAL directory
// of one PROV-JSON file per document, named after its id (decodeID);
// JSON journalOp records; a JSON storeSnapshot; and PROV-JSON doc blobs
// inside binary records and snapshots. It converts dir to the format
// this build writes and returns the number of documents it holds. It
// recovers the document set into an in-memory store through
// Store.apply, reading with the serving path's envelope walkers, and
// writes that set as one snapshot at the recovered last sequence. On a
// journaled directory it holds the directory lock (wal.Open), so it
// refuses to run beside a live server, and compacts, leaving only bytes
// Open reads. A pre-WAL directory gets its snapshot at sequence 1
// before any journal exists: until it lands, Open still refuses the
// directory and a rerun starts over. Its *.json files stay, unread.
func Upgrade(dir string) (docs int, err error) {
	has, err := wal.HasState(dir)
	if err != nil {
		return 0, err
	}
	if !has {
		return upgradePreWAL(dir)
	}
	l, rec, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}()
	s := NewSharded(1)
	if err := s.restore(rec, upgradeRecord, upgradeSnapshot); err != nil {
		return 0, err
	}
	if rec.LastSeq() == 0 {
		return 0, nil
	}
	if err := l.WriteSnapshot(rec.LastSeq(), snapshotOf(s)); err != nil {
		return 0, fmt.Errorf("provstore: upgrade: %w", err)
	}
	if _, err := l.Compact(); err != nil {
		return 0, fmt.Errorf("provstore: upgrade: %w", err)
	}
	return s.Count(), nil
}

// upgradePreWAL imports a pre-WAL directory's *.json files, in name
// order, one Apply each of a document that passes Validate, and writes
// them as the snapshot at sequence 1.
func upgradePreWAL(dir string) (int, error) {
	names, err := preWALFiles(dir)
	if err != nil || names == nil {
		return 0, err
	}
	s := NewSharded(1)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, fmt.Errorf("provstore: upgrade %q: %w", name, err)
		}
		id := decodeID(strings.TrimSuffix(name, ".json"))
		blob, invalid, err := jsonBlob(raw)
		if err == nil && invalid != nil {
			err = fmt.Errorf("provstore: refusing invalid document %q: %w", id, invalid)
		}
		if err != nil {
			return 0, fmt.Errorf("provstore: upgrade %q: %w", name, err)
		}
		if err := s.Apply(context.Background(), []Op{{ID: id, Blob: blob}}); err != nil {
			return 0, fmt.Errorf("provstore: upgrade %q: %w", name, err)
		}
	}
	if err := wal.WriteSnapshotTo(dir, 1, snapshotOf(s)); err != nil {
		return 0, fmt.Errorf("provstore: upgrade: %w", err)
	}
	return s.Count(), nil
}

// snapshotOf is s's document set as a snapshot payload.
func snapshotOf(s *Store) []byte {
	var entries []*entry
	s.eachEntry(func(e *entry) { entries = append(entries, e) })
	return appendSnapshot(nil, entries, len(s.shards))
}

// preWALFiles lists the *.json files of a directory that holds no WAL
// state: what a pre-WAL build left. It lists none for a journaled
// directory.
func preWALFiles(dir string) ([]string, error) {
	if has, err := wal.HasState(dir); err != nil || has {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("provstore: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// upgradeRecord reads a journal record in any format: a JSON journalOp,
// or a binary envelope whose doc blobs may be PROV-JSON.
func upgradeRecord(payload []byte, seq uint64) (mutation, error) {
	if len(payload) == 0 || payload[0] != '{' {
		return decodeRecord(payload, seq, legacyEntry)
	}
	m := mutation{lenient: true}
	var op journalOp
	err := json.Unmarshal(payload, &op)
	if err == nil {
		m.trace = op.Trace
		err = decodeLegacyOp(&m, op, true)
	}
	if err != nil {
		return mutation{}, fmt.Errorf("provstore: record seq %d: %w", seq, err)
	}
	return m, nil
}

// upgradeSnapshot reads a snapshot in any format: a JSON storeSnapshot,
// or a binary one whose doc blobs may be PROV-JSON.
func upgradeSnapshot(payload []byte) (mutation, error) {
	if len(payload) == 0 || payload[0] != '{' {
		return decodeSnapshotWith(payload, legacyEntry)
	}
	m := mutation{lenient: true}
	var snap storeSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return mutation{}, fmt.Errorf("provstore: recover snapshot: %w", err)
	}
	for id, raw := range snap.Docs {
		if err := m.putJSON(id, raw); err != nil {
			return mutation{}, fmt.Errorf("provstore: recover snapshot: doc %q: %w", id, err)
		}
	}
	return m, nil
}

// legacyEntry is blobEntry that also reads a PROV-JSON blob, which no
// entry keeps: the entry keeps its document's binary encoding.
func legacyEntry(id string, blob []byte) (*entry, error) {
	if len(blob) > 0 && blob[0] == '{' {
		return jsonEntry(id, blob)
	}
	return blobEntry(id, blob)
}

// jsonEntry is the entry of a PROV-JSON document, built from its binary
// encoding. The document was accepted when it was journaled, so only
// what newEntry checks is checked again, not Validate.
func jsonEntry(id string, raw []byte) (*entry, error) {
	blob, _, err := jsonBlob(raw)
	if err != nil {
		return nil, err
	}
	return newEntry(id, blob)
}

// jsonBlob is the exactly sized binary encoding of the PROV-JSON
// document raw (prov.TranscodeJSON), or the error ParseJSON reports for
// raw; invalid is the error Validate reports for the document, if any.
func jsonBlob(raw []byte) (blob []byte, invalid, err error) {
	sc := jsonscan.New(raw)
	scratch, _, invalid, err := prov.TranscodeJSON(getOpBuf(), &sc)
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		err = fmt.Errorf("prov: invalid PROV-JSON: %w", err)
	} else if invalid != nil && !errors.Is(invalid, prov.ErrInvalidDocument) {
		err = invalid
	}
	if err != nil {
		putOpBuf(scratch)
		return nil, nil, err
	}
	return keepBlob(scratch), invalid, nil
}

// putJSON appends a put of the PROV-JSON document raw under id to m.
func (m *mutation) putJSON(id string, raw []byte) error {
	e, err := jsonEntry(id, raw)
	if err != nil {
		return err
	}
	m.ops = append(m.ops, Op{ID: id})
	m.entries = append(m.entries, e)
	return nil
}

// decodeLegacyOp lifts a journalOp — the only place the
// "put"/"delete"/"batch" op strings are interpreted — onto m.ops.
func decodeLegacyOp(m *mutation, op journalOp, batchOK bool) error {
	switch op.Op {
	case "put":
		if err := m.putJSON(op.ID, op.Doc); err != nil {
			return fmt.Errorf("%q: %w", op.ID, err)
		}
	case "delete":
		m.ops = append(m.ops, Op{ID: op.ID})
		m.entries = append(m.entries, nil)
	case "batch":
		if !batchOK {
			return fmt.Errorf("nested batch")
		}
		for _, sub := range op.Ops {
			if err := decodeLegacyOp(m, sub, false); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
	return nil
}

// decodeID turns a pre-WAL file name back into its document id.
// Letters, digits and "_-." stood for themselves; any other rune was
// '%' and four uppercase hex digits, a rune beyond the BMP two such
// escapes (its UTF-16 surrogate pair), and a byte that is not UTF-8
// "%%" and two hex digits.
func decodeID(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); {
		if b, ok := hexAt(name, i, "%%", 2); ok {
			sb.WriteByte(byte(b))
			i += 4
			continue
		}
		if r, ok := hexAt(name, i, "%", 4); ok {
			i += 5
			if lo, ok := hexAt(name, i, "%", 4); ok && utf16.IsSurrogate(rune(r)) {
				if pair := utf16.DecodeRune(rune(r), rune(lo)); pair != utf8.RuneError {
					r = uint64(pair)
					i += 5
				}
			}
			sb.WriteRune(rune(r))
			continue
		}
		sb.WriteByte(name[i])
		i++
	}
	return sb.String()
}

// hexAt parses the n hex digits that follow prefix at name[i:].
func hexAt(name string, i int, prefix string, n int) (uint64, bool) {
	if !strings.HasPrefix(name[i:], prefix) || len(name)-i-len(prefix) < n {
		return 0, false
	}
	v, err := strconv.ParseUint(name[i+len(prefix):i+len(prefix)+n], 16, 32)
	return v, err == nil
}
