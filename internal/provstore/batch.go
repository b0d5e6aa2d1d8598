package provstore

import (
	"context"
	"fmt"

	"repro/internal/prov"
)

// A bulk convenience over Apply: N documents as one atomic unit, one
// journal record and one fsync (README, "Bulk ingestion"). Deleting N
// documents atomically is Apply with one Op{ID: id} per document.

// PutBatch stores (or replaces) every document in docs as one atomic
// unit; the documents stay the caller's (see Apply). It is Apply with
// one put per entry and no deadline; an empty batch is a no-op.
func (s *Store) PutBatch(docs map[string]*prov.Document) error {
	ops := make([]Op, 0, len(docs))
	for id, d := range docs {
		if d == nil {
			return fmt.Errorf("provstore: batch item %q has no document", id)
		}
		ops = append(ops, Op{ID: id, Doc: d})
	}
	return s.Apply(context.Background(), ops)
}
