package prov

import (
	"strings"
	"testing"
	"time"
)

// chainDoc builds raw -> prep(activity) -> curated -> train(activity) -> model.
func chainDoc() *Document {
	d := NewDocument()
	d.AddEntity("ex:raw", nil)
	d.AddEntity("ex:curated", nil)
	d.AddEntity("ex:model", nil)
	d.AddActivity("ex:prep", nil)
	d.AddActivity("ex:train", nil)
	d.Used("ex:prep", "ex:raw", time.Time{})
	d.WasGeneratedBy("ex:curated", "ex:prep", time.Time{})
	d.Used("ex:train", "ex:curated", time.Time{})
	d.WasGeneratedBy("ex:model", "ex:train", time.Time{})
	return d
}

// ancestors and descendants are the whole forward and reverse reach
// of a node over a fresh index.
func ancestors(d *Document, start QName) []QName {
	reach, _ := NewIndex(d).Reach(start, Forward, 0)
	return reach
}

func descendants(d *Document, start QName) []QName {
	reach, _ := NewIndex(d).Reach(start, Reverse, 0)
	return reach
}

func TestAncestors(t *testing.T) {
	d := chainDoc()
	anc := ancestors(d, "ex:model")
	want := map[QName]bool{"ex:train": true, "ex:curated": true, "ex:prep": true, "ex:raw": true}
	if len(anc) != len(want) {
		t.Fatalf("ancestors = %v", anc)
	}
	for _, a := range anc {
		if !want[a] {
			t.Errorf("unexpected ancestor %s", a)
		}
	}
}

func TestDescendants(t *testing.T) {
	d := chainDoc()
	desc := descendants(d, "ex:raw")
	want := map[QName]bool{"ex:prep": true, "ex:curated": true, "ex:train": true, "ex:model": true}
	if len(desc) != len(want) {
		t.Fatalf("descendants = %v", desc)
	}
}

func TestAncestorsOfRootEmpty(t *testing.T) {
	d := chainDoc()
	if anc := ancestors(d, "ex:raw"); len(anc) != 0 {
		t.Errorf("raw should have no ancestors, got %v", anc)
	}
}

// subgraph is SubgraphJSON over d's blob, read back with ParseJSON.
func subgraph(t *testing.T, d *Document, nodes ...QName) *Document {
	t.Helper()
	raw, err := SubgraphJSON(AppendBinary(nil, d), nodes)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// neighborhood is the subgraph of d within hops of start, ignoring edge
// direction, as the store serves it.
func neighborhood(t *testing.T, d *Document, start QName, hops int) *Document {
	t.Helper()
	reach, _ := NewIndex(d).Reach(start, Undirected, hops)
	return subgraph(t, d, append(reach, start)...)
}

func TestSubgraph(t *testing.T) {
	d := chainDoc()
	sub := subgraph(t, d, "ex:model", "ex:train")
	if len(sub.Entities) != 1 || len(sub.Activities) != 1 {
		t.Fatalf("subgraph stats = %+v", sub.Stats())
	}
	if len(sub.Relations) != 1 || sub.Relations[0].Kind != RelWasGeneratedBy || sub.Relations[0].ID != "_:g1" {
		t.Fatalf("subgraph relations = %v", sub.Relations)
	}
	if _, err := sub.Validate(); err != nil {
		t.Errorf("subgraph must be valid: %v", err)
	}
}

func TestNeighborhood(t *testing.T) {
	d := chainDoc()
	n1 := neighborhood(t, d, "ex:curated", 1)
	// 1 hop from curated: prep (generatedBy) and train (used).
	if n1.Stats().Entities != 1 || n1.Stats().Activities != 2 {
		t.Fatalf("1-hop stats = %+v", n1.Stats())
	}
	nAll := neighborhood(t, d, "ex:curated", 10)
	if nAll.Stats().Entities != 3 || nAll.Stats().Activities != 2 {
		t.Fatalf("full neighborhood stats = %+v", nAll.Stats())
	}
}

func TestCycleSafety(t *testing.T) {
	d := NewDocument()
	d.AddEntity("ex:a", nil)
	d.AddEntity("ex:b", nil)
	d.WasDerivedFrom("ex:a", "ex:b")
	d.WasDerivedFrom("ex:b", "ex:a") // cycle
	if got := len(ancestors(d, "ex:a")); got != 1 {
		t.Errorf("cyclic ancestors = %d, want 1", got)
	}
}

func TestValidateDangling(t *testing.T) {
	d := NewDocument()
	d.AddActivity("ex:a", nil)
	d.Used("ex:a", "ex:missing", time.Time{})
	if _, err := d.Validate(); err == nil {
		t.Fatal("dangling endpoint must be an error")
	}
}

func TestValidateWrongClass(t *testing.T) {
	d := NewDocument()
	d.AddEntity("ex:e", nil)
	d.AddEntity("ex:e2", nil)
	// used requires an activity subject; ex:e is an entity.
	d.Used("ex:e", "ex:e2", time.Time{})
	if _, err := d.Validate(); err == nil {
		t.Fatal("wrong endpoint class must be an error")
	}
}

// TestValidateRelationEndpoints pins the issue list, in relation order,
// for missing and wrong-class subjects and objects, one relation kind
// that takes any node class included.
func TestValidateRelationEndpoints(t *testing.T) {
	d := NewDocument()
	d.AddEntity("ex:e", nil)
	d.AddActivity("ex:a", nil)
	d.AddAgent("ex:g", nil)
	d.Used("ex:a", "ex:e", time.Time{})    // fine
	d.Used("ex:gone", "ex:e", time.Time{}) // missing subject
	d.Used("ex:a", "ex:none", time.Time{}) // missing object
	d.Used("ex:e", "ex:a", time.Time{})    // both of the wrong class
	d.WasAssociatedWith("ex:gone", "ex:e") // missing subject, object of the wrong class
	d.WasAttributedTo("ex:g", "ex:none")   // subject of the wrong class, missing object
	d.AddRelation(Relation{Kind: RelationKind("ex:any"), Subject: "ex:e", Object: "ex:a"})
	issues, err := d.Validate()
	var got []string
	for _, iss := range issues {
		got = append(got, iss.Severity+": "+iss.Message)
	}
	want := []string{
		"error: relation _:u2 (used) references missing subject ex:gone",
		"error: relation _:u3 (used) references missing object ex:none",
		"error: relation _:u4 (used) subject ex:e is a entity, want activity",
		"error: relation _:u4 (used) object ex:a is a activity, want entity",
		"error: relation _:assoc5 (wasAssociatedWith) references missing subject ex:gone",
		"error: relation _:assoc5 (wasAssociatedWith) object ex:e is a entity, want agent",
		"error: relation _:attr6 (wasAttributedTo) subject ex:g is a agent, want entity",
		"error: relation _:attr6 (wasAttributedTo) references missing object ex:none",
		`error: relation _:r7 has unsupported kind "ex:any"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("issues:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if err == nil || !strings.Contains(err.Error(), "9 issue(s), first: "+strings.TrimPrefix(want[0], "error: ")) {
		t.Fatalf("error %v", err)
	}
}

func TestValidateTimeOrder(t *testing.T) {
	d := NewDocument()
	a := d.AddActivity("ex:a", nil)
	a.StartTime = time.Date(2025, 1, 2, 0, 0, 0, 0, time.UTC)
	a.EndTime = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := d.Validate(); err == nil {
		t.Fatal("end before start must be an error")
	}
}

func TestValidateWarningsOnly(t *testing.T) {
	d := NewDocument()
	d.AddEntity("weird:e", nil) // unregistered prefix -> warning only
	issues, err := d.Validate()
	if err != nil {
		t.Fatalf("warnings must not fail validation: %v", err)
	}
	if len(issues) == 0 {
		t.Error("expected a warning for unregistered prefix")
	}
}

func TestProvNOutput(t *testing.T) {
	d := chainDoc()
	n := d.ProvN()
	for _, want := range []string{"document", "endDocument", "entity(ex:raw)", "used(", "wasGeneratedBy("} {
		if !strings.Contains(n, want) {
			t.Errorf("PROV-N missing %q in:\n%s", want, n)
		}
	}
}
