package provstore

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/prov"
)

// Cross-document lineage: documents uploaded separately often share
// qualified names (the experiment entity across its runs, a dataset
// used by many pipelines, a run document paired from a workflow). The
// union traversal below follows relation edges across *all* stored
// documents, keyed by qualified name — the store-level counterpart of
// the paper's multi-level provenance exploration. The entries are
// gathered shard by shard (brief read lock each, see eachEntry); the
// union/merge itself runs lock-free on their immutable indexes — no
// document is read, so none is decoded — and every output is sorted, so
// results are deterministic for any shard count.

// CrossNode is one node of a cross-document traversal result.
type CrossNode struct {
	Node prov.QName
	// Docs lists every document mentioning the node, sorted.
	Docs []string
}

// CrossDocLineage returns all nodes reachable from start across every
// stored document, following edges toward origins (Ancestors) or away
// from them (Descendants), within depth hops (<= 0 unbounded).
func (s *Store) CrossDocLineage(start prov.QName, dir LineageDirection, depth int) ([]CrossNode, error) {
	if dir != Ancestors && dir != Descendants {
		return nil, fmt.Errorf("provstore: bad lineage direction %q", dir)
	}
	pdir := prov.Forward
	if dir == Descendants {
		pdir = prov.Reverse
	}
	// Union adjacency over qualified names + node->docs index, from each
	// entry's index: its rows are the document's relations.
	adj := map[prov.QName][]prov.QName{}
	docsOf := nodeDocs{}
	s.eachEntry(func(e *entry) {
		docsOf.add(e)
		for i := int32(0); i < int32(e.ix.Len()); i++ {
			from := e.ix.Name(i)
			for _, to := range e.ix.Row(i, pdir) {
				adj[from] = append(adj[from], e.ix.Name(to))
			}
		}
	})
	for _, next := range adj {
		slices.Sort(next)
	}

	if docsOf[start] == nil {
		return nil, fmt.Errorf("provstore: node %s not found in any document", start)
	}

	type qe struct {
		q prov.QName
		d int
	}
	visited := map[prov.QName]bool{start: true}
	queue := []qe{{start, 0}}
	var reach []prov.QName
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if depth > 0 && cur.d >= depth {
			continue
		}
		for _, n := range adj[cur.q] {
			if visited[n] {
				continue
			}
			visited[n] = true
			reach = append(reach, n)
			queue = append(queue, qe{n, cur.d + 1})
		}
	}
	sort.Slice(reach, func(i, j int) bool { return reach[i] < reach[j] })

	out := make([]CrossNode, 0, len(reach))
	for _, q := range reach {
		var docs []string
		for d := range docsOf[q] {
			docs = append(docs, d)
		}
		sort.Strings(docs)
		out = append(out, CrossNode{Node: q, Docs: docs})
	}
	return out, nil
}

// nodeDocs maps an element's qualified name to the set of documents
// declaring it.
type nodeDocs map[prov.QName]map[string]bool

// add records e's elements: its index's nodes, which are exactly the
// declared elements because newEntry refuses a relation to any other.
func (nd nodeDocs) add(e *entry) {
	for i := int32(0); i < int32(e.ix.Len()); i++ {
		q := e.ix.Name(i)
		if nd[q] == nil {
			nd[q] = map[string]bool{}
		}
		nd[q][e.id] = true
	}
}
