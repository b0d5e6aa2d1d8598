package provgraph

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/prov"
)

func sample() *prov.Document {
	d := prov.NewDocument()
	d.AddEntity("ex:data", prov.Attrs{"prov:type": prov.Str("provml:Dataset")})
	d.AddEntity("ex:model", prov.Attrs{"prov:type": prov.Str("provml:Model")})
	d.AddActivity("ex:run", prov.Attrs{"prov:type": prov.Str("provml:RunExecution")})
	d.AddAgent("ex:alice", nil)
	d.Used("ex:run", "ex:data", time.Time{})
	d.WasGeneratedBy("ex:model", "ex:run", time.Time{})
	d.WasAssociatedWith("ex:run", "ex:alice")
	return d
}

func TestDOT(t *testing.T) {
	out := DOT(sample())
	for _, want := range []string{
		"digraph provenance",
		`"ex:data" [shape=ellipse`,
		`"ex:run" [shape=box`,
		`"ex:alice" [shape=house`,
		`"ex:run" -> "ex:data" [label="used"`,
		`"ex:model" -> "ex:run" [label="wasGeneratedBy"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q in:\n%s", want, out)
		}
	}
}

func TestDOTDeterministic(t *testing.T) {
	if DOT(sample()) != DOT(sample()) {
		t.Error("DOT output must be deterministic")
	}
}

func TestASCII(t *testing.T) {
	out := ASCII(sample(), "ex:model", 0)
	if !strings.Contains(out, "ex:model (entity)") {
		t.Errorf("missing root: %s", out)
	}
	if !strings.Contains(out, "wasGeneratedBy]→ ex:run") {
		t.Errorf("missing generation edge: %s", out)
	}
	if !strings.Contains(out, "used]→ ex:data") {
		t.Errorf("missing used edge: %s", out)
	}
}

func TestASCIICycleSafe(t *testing.T) {
	d := prov.NewDocument()
	d.AddEntity("ex:a", nil)
	d.AddEntity("ex:b", nil)
	d.WasDerivedFrom("ex:a", "ex:b")
	d.WasDerivedFrom("ex:b", "ex:a")
	out := ASCII(d, "ex:a", 0)
	if !strings.Contains(out, "...") {
		t.Errorf("cycle marker missing:\n%s", out)
	}
}

func TestASCIIDepthLimit(t *testing.T) {
	out := ASCII(sample(), "ex:model", 1)
	if strings.Contains(out, "ex:data") {
		t.Errorf("depth 1 should not reach ex:data:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	s := Summary(sample())
	for _, want := range []string{"entities=2", "activities=1", "agents=1", "used=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}

// diamondLadder chains k diamonds: ex:n<i+1> derives from ex:a<i> and
// ex:b<i>, which both derive from ex:n<i> — 3k+1 nodes, 4k relations
// and 2^k paths from ex:n<k> down to ex:n0.
func diamondLadder(k int) *prov.Document {
	d := prov.NewDocument()
	n := func(i int) prov.QName { return prov.QName(fmt.Sprintf("ex:n%d", i)) }
	d.AddEntity(n(0), nil)
	for i := 0; i < k; i++ {
		d.AddEntity(n(i+1), nil)
		for _, mid := range []prov.QName{prov.QName(fmt.Sprintf("ex:a%d", i)), prov.QName(fmt.Sprintf("ex:b%d", i))} {
			d.AddEntity(mid, nil)
			d.WasDerivedFrom(n(i+1), mid)
			d.WasDerivedFrom(mid, n(i))
		}
	}
	return d
}

// TestASCIIProportionalToRelations: a DAG is not unfolded into a tree.
// Each node is expanded once, so the rendering has at most one line per
// relation plus the root, at any depth cap; unfolded, this ladder's
// 2^16 paths rendered 28 MB.
func TestASCIIProportionalToRelations(t *testing.T) {
	const k = 16
	d := diamondLadder(k)
	for _, maxDepth := range []int{0, 6, 1024} {
		out := ASCII(d, prov.QName(fmt.Sprintf("ex:n%d", k)), maxDepth)
		if lines := strings.Count(out, "\n"); lines > len(d.Relations)+1 {
			t.Errorf("depth %d: %d lines for %d relations", maxDepth, lines, len(d.Relations))
		}
	}
	out := ASCII(d, prov.QName(fmt.Sprintf("ex:n%d", k)), 0)
	if !strings.Contains(out, "ex:n0 (entity)") || !strings.Contains(out, " ...\n") {
		t.Errorf("unbounded walk misses the bottom of the ladder or marks no shared node:\n%s", out)
	}
}

// TestASCIIExpandsAtShallowerRevisit: a node first met at the depth cap
// is not expanded there, and is when a shallower path reaches it later.
func TestASCIIExpandsAtShallowerRevisit(t *testing.T) {
	d := prov.NewDocument()
	for _, id := range []prov.QName{"ex:r", "ex:a", "ex:b", "ex:c", "ex:leaf", "ex:z"} {
		d.AddEntity(id, nil)
	}
	d.WasDerivedFrom("ex:r", "ex:a") // ex:r → ex:a → ex:b → ex:c, ex:c met at depth 3
	d.WasDerivedFrom("ex:a", "ex:b")
	d.WasDerivedFrom("ex:b", "ex:c")
	d.WasDerivedFrom("ex:r", "ex:z") // ex:r → ex:z → ex:c, ex:c met at depth 2
	d.WasDerivedFrom("ex:z", "ex:c")
	d.WasDerivedFrom("ex:c", "ex:leaf")
	out := ASCII(d, "ex:r", 3)
	if strings.Count(out, "ex:leaf (entity)") != 1 || strings.Contains(out, "ex:c ...") {
		t.Errorf("ex:c should print twice and be expanded once, from ex:z:\n%s", out)
	}
}

// TestASCIILinearInDepth: the explorer page of a chain at the 1 024-hop
// traversal cap grows with its relations, not with their square. A line
// deeper than asciiIndentLevels starts with its level number; indented
// two columns a level, this chain's page was about 1 070 bytes a
// relation.
func TestASCIILinearInDepth(t *testing.T) {
	const n = 1029
	d := prov.NewDocument()
	id := func(i int) prov.QName { return prov.QName(fmt.Sprintf("ex:e%d", i)) }
	for i := range n {
		d.AddEntity(id(i), nil)
	}
	for i := 1; i < n; i++ {
		d.WasDerivedFrom(id(i-1), id(i))
	}
	out := ASCII(d, id(0), 0)
	if per := len(out) / len(d.Relations); per > 160 {
		t.Errorf("%d bytes for %d relations, %d a relation", len(out), len(d.Relations), per)
	}
	lines := strings.Split(out, "\n")
	for level, want := range map[int]string{
		asciiIndentLevels:     strings.Repeat("  ", asciiIndentLevels-1) + "└─[wasDerivedFrom]→ ex:e32 (entity)",
		asciiIndentLevels + 1: "33 └─[wasDerivedFrom]→ ex:e33 (entity)",
		n - 1:                 "1028 └─[wasDerivedFrom]→ ex:e1028 (entity)",
	} {
		if lines[level] != want {
			t.Errorf("level %d: %q, want %q", level, lines[level], want)
		}
	}
}
