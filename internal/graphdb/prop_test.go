package graphdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRandomOpsInvariants drives the graph with random node and
// relationship creations, some naming a node that does not exist, and
// checks after every few steps that a failed creation left nothing
// behind and that Closure, for every start, direction, type filter and
// depth, equals a breadth-first search over the edges created so far.
func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := New()
	var nodes []NodeID
	type edge struct {
		from, to NodeID
		typ      string
	}
	var edges []edge
	types := []string{"", "T0", "T1", "T2"}

	// reach is the reference: a level-by-level BFS over edges, read in
	// the given direction(s).
	reach := func(start NodeID, dir Direction, typ string, depth int) []NodeID {
		next := map[NodeID][]NodeID{}
		for _, e := range edges {
			if typ != "" && e.typ != typ {
				continue
			}
			if dir != Incoming {
				next[e.from] = append(next[e.from], e.to)
			}
			if dir != Outgoing {
				next[e.to] = append(next[e.to], e.from)
			}
		}
		seen := map[NodeID]bool{start: true}
		var out []NodeID
		frontier := []NodeID{start}
		for hop := 0; len(frontier) > 0 && (depth <= 0 || hop < depth); hop++ {
			var level []NodeID
			for _, cur := range frontier {
				for _, n := range next[cur] {
					if !seen[n] {
						seen[n] = true
						level = append(level, n)
					}
				}
			}
			out = append(out, level...)
			frontier = level
		}
		slices.Sort(out)
		return out
	}

	checkInvariants := func(step int) {
		t.Helper()
		if len(g.nodes) != len(nodes) || len(g.rels) != len(edges) {
			t.Fatalf("step %d: graph holds %d nodes, %d rels; created %d, %d", step, len(g.nodes), len(g.rels), len(nodes), len(edges))
		}
		for _, start := range nodes {
			for _, dir := range []Direction{Outgoing, Incoming, Both} {
				for _, typ := range types {
					for _, depth := range []int{0, 1, 2} {
						got := g.Closure(start, dir, typ, depth)
						if want := reach(start, dir, typ, depth); !slices.Equal(got, want) {
							t.Fatalf("step %d: Closure(%d, %d, %q, %d) = %v, want %v", step, start, dir, typ, depth, got, want)
						}
					}
				}
			}
		}
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // create node
			id, err := g.CreateNode([]string{"N"}, Props{"v": rng.Int63n(5)})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, id)
		case len(nodes) >= 1: // create rel, sometimes to a node that does not exist
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			if op == 9 {
				b = NodeID(len(nodes) + 1 + rng.Intn(5))
			}
			typ := fmt.Sprintf("T%d", rng.Intn(3))
			if _, err := g.CreateRel(a, b, typ, nil); err == nil {
				edges = append(edges, edge{a, b, typ})
			} else if op != 9 {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if step%50 == 0 {
			checkInvariants(step)
		}
	}
	checkInvariants(300)
}
