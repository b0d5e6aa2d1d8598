package provstore

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/prov"
)

// A bulk convenience over Apply: N documents as one atomic unit, one
// journal record and one fsync (README, "Bulk ingestion"). Deleting N
// documents atomically is Apply with one Op{ID: id} per document.

// PutBatch stores (or replaces) every document in docs as one atomic
// unit; the documents stay the caller's, as Put's do. It is Apply with
// one put per entry (docOp) and no deadline; an empty batch is a no-op.
func (s *Store) PutBatch(docs map[string]*prov.Document) error {
	ops := make([]Op, 0, len(docs))
	for _, id := range slices.Sorted(maps.Keys(docs)) {
		d := docs[id]
		if d == nil {
			return fmt.Errorf("provstore: batch item %q has no document", id)
		}
		op, err := docOp(id, d)
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	return s.Apply(context.Background(), ops)
}

// docOp is the put of doc under id: doc is encoded and validated in one
// pass (prov.EncodeDocument) into a pooled buffer, and its blob kept
// exactly sized (keepBlob).
func docOp(id string, doc *prov.Document) (Op, error) {
	scratch, invalid := prov.EncodeDocument(getOpBuf(), doc)
	if invalid != nil {
		putOpBuf(scratch)
		return Op{}, fmt.Errorf("provstore: refusing invalid document %q: %w", id, invalid)
	}
	return Op{ID: id, Blob: keepBlob(scratch)}, nil
}
