package prov

import (
	"testing"
	"time"
)

func sampleDoc(t testing.TB) *Document {
	t.Helper()
	d := NewDocument()
	d.AddEntity("ex:dataset", Attrs{"prov:type": Str("provml:Dataset"), "ex:patches": Int(800000)})
	d.AddEntity("ex:model", Attrs{"prov:type": Str("provml:Model"), "ex:params": Int(100_000_000)})
	a := d.AddActivity("ex:train_run", Attrs{"prov:type": Str("provml:RunExecution")})
	a.StartTime = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	a.EndTime = a.StartTime.Add(2 * time.Hour)
	d.AddAgent("ex:researcher", Attrs{"prov:type": Str("prov:Person")})
	d.Used("ex:train_run", "ex:dataset", a.StartTime)
	d.WasGeneratedBy("ex:model", "ex:train_run", a.EndTime)
	d.WasAssociatedWith("ex:train_run", "ex:researcher")
	d.WasAttributedTo("ex:model", "ex:researcher")
	d.WasDerivedFrom("ex:model", "ex:dataset")
	return d
}

func TestAddEntityIdempotentMerge(t *testing.T) {
	d := NewDocument()
	d.AddEntity("ex:a", Attrs{"ex:x": Int(1)})
	d.AddEntity("ex:a", Attrs{"ex:y": Int(2)})
	e := d.Entities["ex:a"]
	if len(e.Attrs) != 2 {
		t.Fatalf("attrs = %v, want merged x and y", e.Attrs)
	}
	if got, _ := e.Attrs["ex:x"].AsInt(); got != 1 {
		t.Errorf("ex:x = %d, want 1", got)
	}
}

func TestAddEntityOverwriteWins(t *testing.T) {
	d := NewDocument()
	d.AddEntity("ex:a", Attrs{"ex:x": Int(1)})
	d.AddEntity("ex:a", Attrs{"ex:x": Int(9)})
	if got, _ := d.Entities["ex:a"].Attrs["ex:x"].AsInt(); got != 9 {
		t.Errorf("ex:x = %d, want latest value 9", got)
	}
}

func TestRelationIDsUnique(t *testing.T) {
	d := sampleDoc(t)
	seen := map[string]bool{}
	for _, r := range d.Relations {
		if seen[r.ID] {
			t.Fatalf("duplicate relation id %q", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestStats(t *testing.T) {
	d := sampleDoc(t)
	s := d.Stats()
	if s.Entities != 2 || s.Activities != 1 || s.Agents != 1 || s.Relations != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNodeKind(t *testing.T) {
	d := sampleDoc(t)
	cases := map[QName]string{
		"ex:dataset":    "entity",
		"ex:train_run":  "activity",
		"ex:researcher": "agent",
		"ex:nope":       "",
	}
	for id, want := range cases {
		if got := d.NodeKind(id); got != want {
			t.Errorf("NodeKind(%s) = %q, want %q", id, got, want)
		}
	}
}

func TestRelationsOfKind(t *testing.T) {
	d := sampleDoc(t)
	if got := len(d.RelationsOfKind(RelUsed)); got != 1 {
		t.Errorf("used count = %d, want 1", got)
	}
	if got := len(d.RelationsOfKind(RelHadMember)); got != 0 {
		t.Errorf("hadMember count = %d, want 0", got)
	}
}

func TestQName(t *testing.T) {
	q := NewQName("ex", "model")
	if q.Prefix() != "ex" || q.Local() != "model" || !q.Valid() {
		t.Fatalf("bad qname decomposition: %q -> %q %q", q, q.Prefix(), q.Local())
	}
	if QName("noprefix").Valid() {
		t.Error("QName without colon must be invalid")
	}
	if QName(":x").Valid() || QName("x:").Valid() {
		t.Error("QName with empty prefix or local must be invalid")
	}
}

func TestActivityTimesSurviveMerge(t *testing.T) {
	d := NewDocument()
	a := d.AddActivity("ex:a", nil)
	start := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	a.StartTime = start
	d.AddActivity("ex:a", Attrs{"ex:k": Str("v")})
	if !d.Activities["ex:a"].StartTime.Equal(start) {
		t.Error("re-adding an activity must not clear its start time")
	}
}
