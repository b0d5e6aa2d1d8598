package provstore

import (
	"testing"
	"time"

	"repro/internal/prov"
)

// twoRunStore stores two run documents sharing the experiment entity
// and the dataset.
func twoRunStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	for i, run := range []string{"run1", "run2"} {
		d := prov.NewDocument()
		d.AddEntity("ex:experiment", prov.Attrs{"prov:type": prov.Str("provml:Experiment")})
		d.AddEntity("ex:dataset", prov.Attrs{"prov:type": prov.Str("provml:Dataset")})
		model := prov.NewQName("ex", "model_"+run)
		d.AddEntity(model, prov.Attrs{"prov:type": prov.Str("provml:Model")})
		act := prov.NewQName("ex", run)
		d.AddActivity(act, prov.Attrs{"prov:type": prov.Str("provml:RunExecution")})
		d.Used(act, "ex:experiment", time.Unix(int64(i), 0))
		d.Used(act, "ex:dataset", time.Unix(int64(i), 0))
		d.WasGeneratedBy(model, act, time.Unix(int64(i+100), 0))
		if err := s.Put("doc_"+run, d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCrossDocLineage(t *testing.T) {
	s := twoRunStore(t)
	// Descendants of the shared dataset must include both runs and both
	// models, even though each pair lives in a different document.
	nodes, err := s.CrossDocLineage("ex:dataset", Descendants, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[prov.QName][]string{}
	for _, n := range nodes {
		found[n.Node] = n.Docs
	}
	for _, want := range []prov.QName{"ex:run1", "ex:run2", "ex:model_run1", "ex:model_run2"} {
		if _, ok := found[want]; !ok {
			t.Errorf("cross-doc descendants missing %s: %v", want, nodes)
		}
	}
	// Each model is known to exactly one document.
	if docs := found["ex:model_run1"]; len(docs) != 1 || docs[0] != "doc_run1" {
		t.Errorf("model_run1 docs = %v", docs)
	}
}

func TestCrossDocLineageDepth(t *testing.T) {
	s := twoRunStore(t)
	nodes, err := s.CrossDocLineage("ex:dataset", Descendants, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One hop: only the two run activities.
	if len(nodes) != 2 {
		t.Fatalf("depth-1 nodes = %v", nodes)
	}
}

func TestCrossDocLineageAncestors(t *testing.T) {
	s := twoRunStore(t)
	nodes, err := s.CrossDocLineage("ex:model_run2", Ancestors, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[prov.QName]bool{}
	for _, n := range nodes {
		found[n.Node] = true
	}
	for _, want := range []prov.QName{"ex:run2", "ex:dataset", "ex:experiment"} {
		if !found[want] {
			t.Errorf("ancestors missing %s: %v", want, nodes)
		}
	}
	if found["ex:model_run1"] {
		t.Error("sibling model must not appear in ancestors")
	}
}

func TestCrossDocLineageErrors(t *testing.T) {
	s := twoRunStore(t)
	if _, err := s.CrossDocLineage("ex:ghost", Ancestors, 0); err == nil {
		t.Error("unknown node must fail")
	}
	if _, err := s.CrossDocLineage("ex:dataset", "sideways", 0); err == nil {
		t.Error("bad direction must fail")
	}
}
