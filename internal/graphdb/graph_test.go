package graphdb

import (
	"slices"
	"sync"
	"testing"
)

func mustNode(t testing.TB, g *Graph, labels []string, props Props) NodeID {
	t.Helper()
	id, err := g.CreateNode(labels, props)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustRel(t testing.TB, g *Graph, from, to NodeID, typ string) RelID {
	t.Helper()
	id, err := g.CreateRel(from, to, typ, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPropsIsolation(t *testing.T) {
	g := New()
	p := Props{"k": "v", "size": 42}
	id := mustNode(t, g, nil, p)
	p["k"] = "mutated"
	n := g.nodes[id]
	if n.props["k"] != "v" {
		t.Error("graph must copy props on create")
	}
	if n.props["size"] != int64(42) {
		t.Errorf("int prop should normalize to int64, got %T", n.props["size"])
	}
	if _, isInt := p["size"].(int); !isInt {
		t.Error("normalization must not touch the caller's props")
	}
}

func TestInvalidPropType(t *testing.T) {
	g := New()
	if _, err := g.CreateNode(nil, Props{"bad": []int{1}}); err == nil {
		t.Fatal("slice prop must be rejected")
	}
	a := mustNode(t, g, nil, nil)
	if _, err := g.CreateRel(a, a, "X", Props{"bad": map[string]int{}}); err == nil {
		t.Fatal("map prop on a relationship must be rejected")
	}
	if got := g.Closure(a, Both, "", 0); len(got) != 0 {
		t.Fatalf("rejected relationship is traversable: %v", got)
	}
}

func TestRelToMissingNode(t *testing.T) {
	g := New()
	a := mustNode(t, g, nil, nil)
	if _, err := g.CreateRel(a, 999, "X", nil); err == nil {
		t.Fatal("rel to missing node must fail")
	}
	if _, err := g.CreateRel(999, a, "X", nil); err == nil {
		t.Fatal("rel from missing node must fail")
	}
}

func buildChain(t testing.TB, g *Graph, n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = mustNode(t, g, []string{"N"}, Props{"i": int64(i)})
		if i > 0 {
			mustRel(t, g, ids[i-1], ids[i], "NEXT")
		}
	}
	return ids
}

func TestClosureAndDepth(t *testing.T) {
	g := New()
	ids := buildChain(t, g, 6)
	all := g.Closure(ids[0], Outgoing, "NEXT", 0)
	if len(all) != 5 {
		t.Fatalf("full closure = %v", all)
	}
	two := g.Closure(ids[0], Outgoing, "NEXT", 2)
	if len(two) != 2 {
		t.Fatalf("depth-2 closure = %v", two)
	}
	none := g.Closure(ids[0], Incoming, "NEXT", 0)
	if len(none) != 0 {
		t.Fatalf("incoming closure from head = %v", none)
	}
	if got := g.Closure(999, Outgoing, "", 0); got != nil {
		t.Fatalf("closure from a missing node = %v", got)
	}
}

// TestNeighborsTypeFilter: a depth-1 closure is the neighbor set, and
// the type filter selects one bucket whether the adjacency is still
// inline (one type) or has spilled into the map (two types).
func TestNeighborsTypeFilter(t *testing.T) {
	g := New()
	a := mustNode(t, g, nil, nil)
	b := mustNode(t, g, nil, nil)
	c := mustNode(t, g, nil, nil)
	mustRel(t, g, a, b, "X")
	if got := g.Closure(a, Outgoing, "Y", 1); len(got) != 0 {
		t.Fatalf("inline bucket, other type = %v", got)
	}
	mustRel(t, g, a, c, "Y")
	if got := g.Closure(a, Outgoing, "X", 1); !slices.Equal(got, []NodeID{b}) {
		t.Fatalf("filtered neighbors = %v", got)
	}
	if got := g.Closure(a, Outgoing, "", 1); !slices.Equal(got, []NodeID{b, c}) {
		t.Fatalf("unfiltered neighbors = %v", got)
	}
	if got := g.Closure(b, Both, "", 1); !slices.Equal(got, []NodeID{a}) {
		t.Fatalf("both-direction neighbors = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	g := New()
	root := mustNode(t, g, []string{"R"}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id, err := g.CreateNode([]string{"W"}, Props{"w": int64(w), "i": int64(i)})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := g.CreateRel(root, id, "HAS", nil); err != nil {
					t.Error(err)
					return
				}
				g.Closure(root, Outgoing, "HAS", 1)
				g.Closure(id, Incoming, "", 0)
			}
		}(w)
	}
	wg.Wait()
	if len(g.nodes) != 401 {
		t.Errorf("nodes = %d, want 401", len(g.nodes))
	}
	if got := len(g.Closure(root, Outgoing, "HAS", 1)); got != 400 {
		t.Errorf("rels = %d, want 400", got)
	}
}
