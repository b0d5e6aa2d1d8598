package provstore

import (
	"context"

	"repro/internal/prov"
)

// One-document shorthands for the tests. The server writes through
// Apply and reads through View; these wrap one op or one view.

// Get returns the stored document, decoded from its blob: a copy of the
// caller's own.
func (s *Store) Get(id string) (*prov.Document, bool) {
	v, ok := s.View(id)
	if !ok {
		return nil, false
	}
	return v.e.document(), true
}

// Delete removes a document; a missing id is an error. It is Apply with
// one op and no deadline.
func (s *Store) Delete(id string) error {
	return s.Apply(context.Background(), []Op{{ID: id}})
}

// Subgraph is View.Subgraph on doc's current version, its PROV-JSON
// read back with ParseJSON.
func (s *Store) Subgraph(doc string, node prov.QName, hops int) (*prov.Document, error) {
	v, _ := s.View(doc)
	raw, err := v.Subgraph(node, hops)
	if err != nil {
		return nil, err
	}
	return prov.ParseJSON(raw)
}
