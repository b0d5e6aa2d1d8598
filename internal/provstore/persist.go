package provstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/prov"
	"repro/internal/wal"
)

// Persistence: the real yProv service sits on a durable Neo4j instance.
// The journaled store (see journal.go) is the crash-safe engine; SaveTo
// and LoadFrom remain as the plain PROV-JSON export/import path — one
// readable file per document, usable for backups, interchange, and
// migrating a pre-WAL data directory.

// SaveTo writes every stored document as <id>.json under dir. Each file
// lands atomically (temp file + rename), so a crash mid-export leaves
// old or new complete documents, never partial JSON.
func (s *Store) SaveTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("provstore: save: %w", err)
	}
	for _, id := range s.List() {
		doc, ok := s.Get(id)
		if !ok {
			continue
		}
		payload, err := doc.MarshalIndent()
		if err != nil {
			return fmt.Errorf("provstore: save %q: %w", id, err)
		}
		if err := wal.WriteFileAtomic(filepath.Join(dir, encodeID(id)+".json"), payload); err != nil {
			return fmt.Errorf("provstore: save %q: %w", id, err)
		}
	}
	return nil
}

// LoadFrom reads every *.json document under dir into the store,
// replacing documents with the same id. Returns the loaded ids.
func (s *Store) LoadFrom(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("provstore: load: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return ids, fmt.Errorf("provstore: load %q: %w", e.Name(), err)
		}
		doc, err := prov.ParseJSON(raw)
		if err != nil {
			return ids, fmt.Errorf("provstore: load %q: %w", e.Name(), err)
		}
		id := decodeID(strings.TrimSuffix(e.Name(), ".json"))
		if err := s.Apply(context.Background(), []Op{{ID: id, Doc: doc}}); err != nil {
			return ids, fmt.Errorf("provstore: load %q: %w", e.Name(), err)
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// encodeID makes a document id filesystem-safe. Letters, digits and
// "_-." stay as they are; any other rune is '%' and four uppercase hex
// digits, a rune beyond the BMP two such escapes (its UTF-16 surrogate
// pair), and a byte that is not UTF-8 "%%" and two hex digits. A valid
// rune is never a lone surrogate, so every Go string has exactly one
// name and decodeID inverts it; ids of BMP runes alone are named as
// they always were.
func encodeID(id string) string {
	var sb strings.Builder
	for i := 0; i < len(id); {
		r, size := utf8.DecodeRuneInString(id[i:])
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			sb.WriteRune(r)
		case r == utf8.RuneError && size == 1:
			fmt.Fprintf(&sb, "%%%%%02X", id[i])
		case r > 0xFFFF:
			hi, lo := utf16.EncodeRune(r)
			fmt.Fprintf(&sb, "%%%04X%%%04X", hi, lo)
		default:
			fmt.Fprintf(&sb, "%%%04X", r)
		}
		i += size
	}
	return sb.String()
}

// decodeID is encodeID's inverse.
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
