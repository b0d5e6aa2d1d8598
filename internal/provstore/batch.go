package provstore

import (
	"context"
	"fmt"

	"repro/internal/prov"
)

// Bulk conveniences over Apply: N documents as one atomic unit, one
// journal record and one fsync (README, "Bulk ingestion").

// PutBatch stores (or replaces) every document in docs as one atomic
// unit. The store keeps deep copies; the documents stay the caller's.
// It is Apply with one put of a clone per entry and no deadline; an
// empty batch is a no-op.
func (s *Store) PutBatch(docs map[string]*prov.Document) error {
	ops := make([]Op, 0, len(docs))
	for id, d := range docs {
		if d == nil {
			return fmt.Errorf("provstore: batch item %q has no document", id)
		}
		ops = append(ops, Op{ID: id, Doc: d.Clone()})
	}
	return s.Apply(context.Background(), ops)
}

// DeleteBatch removes every listed document as one atomic unit. If any
// id is missing (or listed twice) the whole batch fails and nothing is
// deleted. It is Apply with one delete per id and no deadline.
func (s *Store) DeleteBatch(ids []string) error {
	ops := make([]Op, len(ids))
	for i, id := range ids {
		ops[i] = Op{ID: id}
	}
	return s.Apply(context.Background(), ops)
}
