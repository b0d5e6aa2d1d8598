package provstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
		// Freshly parsed and referenced nowhere else: hand it over.
		if err := s.Apply(context.Background(), []Op{{ID: id, Doc: doc}}); err != nil {
			return ids, fmt.Errorf("provstore: load %q: %w", e.Name(), err)
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// encodeID makes a document id filesystem-safe ('%' escapes).
func encodeID(id string) string {
	var sb strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			sb.WriteRune(r)
		default:
			fmt.Fprintf(&sb, "%%%04X", r)
		}
	}
	return sb.String()
}

func decodeID(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); {
		if name[i] == '%' && i+5 <= len(name) {
			var r rune
			if _, err := fmt.Sscanf(name[i+1:i+5], "%04X", &r); err == nil {
				sb.WriteRune(r)
				i += 5
				continue
			}
		}
		sb.WriteByte(name[i])
		i++
	}
	return sb.String()
}
