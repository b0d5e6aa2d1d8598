package provstore

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/prov"
)

// trainingDoc builds raw -> prep -> curated -> train -> model with agents.
func trainingDoc() *prov.Document {
	d := prov.NewDocument()
	d.AddEntity("ex:raw", prov.Attrs{"prov:type": prov.Str("provml:Dataset"), "provml:name": prov.Str("modis")})
	d.AddEntity("ex:curated", prov.Attrs{"prov:type": prov.Str("provml:Dataset")})
	d.AddEntity("ex:model", prov.Attrs{"prov:type": prov.Str("provml:Model"), "provml:name": prov.Str("vit")})
	d.AddActivity("ex:prep", prov.Attrs{"prov:type": prov.Str("provml:Preprocess")})
	d.AddActivity("ex:train", prov.Attrs{"prov:type": prov.Str("provml:RunExecution")})
	d.AddAgent("ex:alice", prov.Attrs{"prov:type": prov.Str("prov:Person")})
	d.Used("ex:prep", "ex:raw", time.Time{})
	d.WasGeneratedBy("ex:curated", "ex:prep", time.Time{})
	d.Used("ex:train", "ex:curated", time.Time{})
	d.WasGeneratedBy("ex:model", "ex:train", time.Time{})
	d.WasAssociatedWith("ex:train", "ex:alice")
	return d
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	doc := trainingDoc()
	if err := s.Put("d1", doc); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("d1")
	if !ok {
		t.Fatal("document missing")
	}
	if !got.Equal(doc) {
		t.Error("stored document differs")
	}
	if s.Count() != 1 {
		t.Errorf("count = %d", s.Count())
	}
	st := s.Stats()
	if st.Nodes != 6 || st.Rels != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetIsolated(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("d1")
	got.AddEntity("ex:mutation", nil)
	again, _ := s.Get("d1")
	if again.HasNode("ex:mutation") {
		t.Error("Get must return isolated copies")
	}
}

func TestPutRejectsInvalid(t *testing.T) {
	s := New()
	bad := prov.NewDocument()
	bad.AddActivity("ex:a", nil)
	bad.Used("ex:a", "ex:missing", time.Time{})
	if err := s.Put("bad", bad); err == nil {
		t.Fatal("invalid document must be rejected")
	}
	if err := s.Put("", trainingDoc()); err == nil {
		t.Fatal("empty id must be rejected")
	}
}

func TestReplaceDocument(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	small := prov.NewDocument()
	small.AddEntity("ex:only", nil)
	if err := s.Put("d1", small); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 {
		t.Errorf("count = %d", s.Count())
	}
	st := s.Stats()
	if st.Nodes != 1 || st.Rels != 0 {
		t.Errorf("old graph nodes leaked: %+v", st)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 || s.Stats().Nodes != 0 {
		t.Error("delete left residue")
	}
	if err := s.Delete("d1"); err == nil {
		t.Error("deleting missing doc must fail")
	}
}

func TestLineage(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	anc, err := s.Lineage("d1", "ex:model", Ancestors, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[prov.QName]bool{"ex:train": true, "ex:curated": true, "ex:prep": true, "ex:raw": true, "ex:alice": true}
	if len(anc) != len(want) {
		t.Fatalf("ancestors = %v", anc)
	}
	for _, a := range anc {
		if !want[a] {
			t.Errorf("unexpected ancestor %s", a)
		}
	}
	desc, err := s.Lineage("d1", "ex:raw", Descendants, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 4 {
		t.Fatalf("descendants = %v", desc)
	}
	one, err := s.Lineage("d1", "ex:model", Ancestors, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != "ex:train" {
		t.Fatalf("depth-1 ancestors = %v", one)
	}
}

func TestLineageErrors(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lineage("nope", "ex:model", Ancestors, 0); err == nil {
		t.Error("missing doc must fail")
	}
	if _, err := s.Lineage("d1", "ex:nope", Ancestors, 0); err == nil {
		t.Error("missing node must fail")
	}
	if _, err := s.Lineage("d1", "ex:model", "sideways", 0); err == nil {
		t.Error("bad direction must fail")
	}
}

func TestSubgraph(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subgraph("d1", "ex:train", 1)
	if err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	// train + curated + model + alice within 1 hop.
	if st.Activities != 1 || st.Entities != 2 || st.Agents != 1 {
		t.Fatalf("subgraph stats = %+v", st)
	}
	if _, err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subgraph("d1", "ex:nope", 1); err == nil {
		t.Error("missing node must fail")
	}
}

func TestFindByTypeAcrossDocs(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("d2", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	hits := s.FindByType("provml:Model")
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Doc != "d1" || hits[1].Doc != "d2" {
		t.Errorf("docs = %v", hits)
	}
	for _, h := range hits {
		if h.Node != "ex:model" || h.Class != "Entity" {
			t.Errorf("bad hit %+v", h)
		}
	}
	runs := s.FindByType("provml:RunExecution")
	if len(runs) != 2 || runs[0].Class != "Activity" {
		t.Errorf("runs = %v", runs)
	}
}

func TestFindByAttr(t *testing.T) {
	s := New()
	if err := s.Put("d1", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	hits := s.FindByAttr("provml:name", "modis")
	if len(hits) != 1 || hits[0].Node != "ex:raw" {
		t.Fatalf("hits = %v", hits)
	}
	if got := s.FindByAttr("provml:name", "nothing"); len(got) != 0 {
		t.Errorf("unexpected hits %v", got)
	}

	typed := prov.NewDocument()
	typed.AddEntity("ex:int", prov.Attrs{"ex:v": prov.Int(3)})
	typed.AddEntity("ex:str", prov.Attrs{"ex:v": prov.Str("3")})
	typed.AddEntity("ex:float", prov.Attrs{"ex:v": prov.Float(2.5)})
	typed.AddActivity("ex:bool", prov.Attrs{"ex:v": prov.Bool(true)})
	typed.AddAgent("ex:ref", prov.Attrs{"ex:v": prov.Ref("ex:int"), "prov:type": prov.Str("provml:Model")})
	if err := s.Put("d2", typed); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key   string
		value interface{}
		want  []SearchResult
	}{
		{"ex:v", int64(3), []SearchResult{{"d2", "ex:int", "Entity"}}},
		{"ex:v", 3, []SearchResult{{"d2", "ex:int", "Entity"}}},
		{"ex:v", "3", []SearchResult{{"d2", "ex:str", "Entity"}}},
		{"ex:v", 3.0, nil},
		{"ex:v", 2.5, []SearchResult{{"d2", "ex:float", "Entity"}}},
		{"ex:v", "2.5", nil},
		{"ex:v", true, []SearchResult{{"d2", "ex:bool", "Activity"}}},
		{"ex:v", "true", nil},
		{"ex:v", false, nil},
		{"ex:v", "ex:int", []SearchResult{{"d2", "ex:ref", "Agent"}}},
		{"ex:v", uint8(3), nil},
		{"qname", "ex:raw", []SearchResult{{"d1", "ex:raw", "Entity"}}},
		{"doc", "d2", []SearchResult{
			{"d2", "ex:bool", "Activity"}, {"d2", "ex:float", "Entity"}, {"d2", "ex:int", "Entity"},
			{"d2", "ex:ref", "Agent"}, {"d2", "ex:str", "Entity"}}},
		{"doc", "d3", nil},
		{"prov:type", "provml:Model", []SearchResult{{"d1", "ex:model", "Entity"}, {"d2", "ex:ref", "Agent"}}},
	} {
		if got := s.FindByAttr(tc.key, tc.value); !slices.Equal(got, tc.want) {
			t.Errorf("FindByAttr(%q, %#v) = %v, want %v", tc.key, tc.value, got, tc.want)
		}
	}

	// A replacement takes the old version out of the prov:type postings,
	// and a delete the last one.
	typed.Agents["ex:ref"].Attrs["prov:type"] = prov.Str("provml:Dataset")
	if err := s.Put("d2", typed); err != nil {
		t.Fatal(err)
	}
	if got := s.FindByType("provml:Model"); !slices.Equal(got, []SearchResult{{"d1", "ex:model", "Entity"}}) {
		t.Errorf("after replace: %v", got)
	}
	if got := s.FindByType("provml:Dataset"); len(got) != 3 || got[2] != (SearchResult{"d2", "ex:ref", "Agent"}) {
		t.Errorf("after replace: %v", got)
	}
	if err := s.Delete("d2"); err != nil {
		t.Fatal(err)
	}
	if got := s.FindByType("provml:Dataset"); len(got) != 2 {
		t.Errorf("after delete: %v", got)
	}
}

// TestPutKeepsItsOwnCopy: the store keeps nothing of a document it is
// handed — Apply, and Put and PutBatch on top of it, index and encode
// it — so changing the caller's document afterwards leaves the stored
// one, its lineage and its type postings untouched.
func TestPutKeepsItsOwnCopy(t *testing.T) {
	s := New()
	single, batched, handed := testDoc(t, "p"), testDoc(t, "b"), testDoc(t, "h")
	if err := s.Put("single", single); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(map[string]*prov.Document{"batched": batched}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(context.Background(), []Op{putOp("handed", handed)}); err != nil {
		t.Fatal(err)
	}

	for id, doc := range map[string]*prov.Document{"single": single, "batched": batched, "handed": handed} {
		if v, _ := s.View(id); v.Document() == doc {
			t.Fatalf("%s: the store holds the caller's document", id)
		}
		want, err := doc.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var model prov.QName
		for q := range doc.Entities {
			if _, typed := doc.Entities[q].Attrs["prov:type"]; typed {
				model = q
			}
		}
		lineage, err := s.Lineage(id, model, Ancestors, 0)
		if err != nil {
			t.Fatal(err)
		}

		doc.Entities[model].Attrs["prov:type"] = prov.Str("provml:Changed")
		doc.AddEntity("ex:late", prov.Attrs{"prov:type": prov.Str("provml:Late")})
		doc.WasDerivedFrom("ex:late", model)
		delete(doc.Activities, doc.ActivityIDs()[0])

		stored, _ := s.Get(id)
		if got, err := stored.MarshalJSON(); err != nil || string(got) != string(want) {
			t.Errorf("%s: stored document changed with the caller's:\n got %s\nwant %s", id, got, want)
		}
		if got, err := s.Lineage(id, model, Ancestors, 0); err != nil || !reflect.DeepEqual(got, lineage) {
			t.Errorf("%s: lineage now %v (%v), was %v", id, got, err, lineage)
		}
	}
	if got := s.FindByType("provml:Changed"); len(got) != 0 {
		t.Errorf("FindByType sees the caller's edit: %v", got)
	}
	if got := s.FindByType("provml:Model"); len(got) != 3 {
		t.Errorf("FindByType(provml:Model) = %v, want one element in each of the 3 documents", got)
	}
}
