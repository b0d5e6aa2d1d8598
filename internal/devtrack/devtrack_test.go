package devtrack

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/prov"
)

func TestDiffBasics(t *testing.T) {
	a := []string{"a", "b", "c"}
	b := []string{"a", "x", "c"}
	ops := DiffLines(a, b)
	st := Stats(ops)
	if st.Inserted != 1 || st.Deleted != 1 || st.Unchanged != 2 {
		t.Fatalf("stats = %+v ops = %v", st, ops)
	}
	got, err := Apply(a, ops)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,x,c" {
		t.Fatalf("apply = %v", got)
	}
}

func TestDiffEmptySides(t *testing.T) {
	if ops := DiffLines(nil, nil); len(ops) != 0 {
		t.Errorf("empty diff = %v", ops)
	}
	ops := DiffLines(nil, []string{"a", "b"})
	if st := Stats(ops); st.Inserted != 2 || st.Deleted != 0 {
		t.Errorf("insert-only stats wrong: %+v", st)
	}
	ops = DiffLines([]string{"a", "b"}, nil)
	if st := Stats(ops); st.Deleted != 2 || st.Inserted != 0 {
		t.Errorf("delete-only stats wrong: %+v", st)
	}
}

func TestDiffIdentical(t *testing.T) {
	a := []string{"x", "y", "z"}
	ops := DiffLines(a, a)
	if st := Stats(ops); st.Inserted != 0 || st.Deleted != 0 || st.Unchanged != 3 {
		t.Errorf("identical diff stats = %+v", st)
	}
}

func TestDiffMinimality(t *testing.T) {
	// One changed line in a 100-line file must not produce a large diff.
	a := make([]string, 100)
	for i := range a {
		a[i] = strings.Repeat("line", 2) + string(rune('0'+i%10))
	}
	b := append([]string(nil), a...)
	b[50] = "CHANGED"
	ops := DiffLines(a, b)
	st := Stats(ops)
	if st.Inserted != 1 || st.Deleted != 1 {
		t.Errorf("non-minimal diff: %+v", st)
	}
}

func TestDiffApplyQuick(t *testing.T) {
	// Property: Apply(a, DiffLines(a, b)) == b for random line sets.
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"alpha", "beta", "gamma", "delta", "eps"}
	gen := func() []string {
		n := rng.Intn(30)
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	for i := 0; i < 300; i++ {
		a, b := gen(), gen()
		got, err := Apply(a, DiffLines(a, b))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if strings.Join(got, "\n") != strings.Join(b, "\n") {
			t.Fatalf("case %d: apply mismatch\na=%v\nb=%v\ngot=%v", i, a, b, got)
		}
	}
}

func TestUnified(t *testing.T) {
	out := Unified(DiffLines([]string{"keep", "old"}, []string{"keep", "new"}))
	for _, want := range []string{"  keep", "- old", "+ new"} {
		if !strings.Contains(out, want) {
			t.Errorf("unified missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotDedup(t *testing.T) {
	s := NewSnapshotStore()
	s.TakeSnapshotFiles(map[string][]byte{"a.go": []byte("same"), "b.go": []byte("same")}, "first")
	if len(s.blobs) != 1 {
		t.Errorf("identical contents must dedup: %d blobs", len(s.blobs))
	}
	s.TakeSnapshotFiles(map[string][]byte{"a.go": []byte("same")}, "second")
	if len(s.blobs) != 1 {
		t.Errorf("cross-snapshot dedup failed: %d blobs", len(s.blobs))
	}
}

func TestSnapshotDiffAndRestore(t *testing.T) {
	s := NewSnapshotStore()
	t0 := time.Date(2025, 2, 1, 0, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return t0 })
	s1 := s.TakeSnapshotFiles(map[string][]byte{
		"train.py": []byte("lr = 0.1\nepochs = 2\n"),
		"old.py":   []byte("dead code\n"),
	}, "baseline")
	s2 := s.TakeSnapshotFiles(map[string][]byte{
		"train.py": []byte("lr = 0.01\nepochs = 2\n"),
		"new.py":   []byte("fresh\n"),
	}, "tuned lr")

	changes, err := s.DiffSnapshots(s1.ID, s2.ID)
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]FileChange{}
	for _, c := range changes {
		byPath[c.Path] = c
	}
	if byPath["train.py"].Status != "modified" {
		t.Errorf("train.py = %+v", byPath["train.py"])
	}
	if byPath["old.py"].Status != "removed" || byPath["new.py"].Status != "added" {
		t.Errorf("changes = %v", changes)
	}
	restored, err := s.Restore(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(restored["train.py"]) != "lr = 0.1\nepochs = 2\n" {
		t.Errorf("restore = %q", restored["train.py"])
	}
}

func TestSnapshotLinkRun(t *testing.T) {
	s := NewSnapshotStore()
	snap := s.TakeSnapshotFiles(map[string][]byte{"a": []byte("x")}, "m")
	if err := s.LinkRun(snap.ID, "run42"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(snap.ID)
	if got.RunID != "run42" {
		t.Errorf("run link = %q", got.RunID)
	}
	if err := s.LinkRun("nope", "x"); err == nil {
		t.Error("linking missing snapshot must fail")
	}
}

func TestJournalAndProv(t *testing.T) {
	s := NewSnapshotStore()
	t0 := time.Date(2025, 2, 1, 0, 0, 0, 0, time.UTC)
	tick := 0
	s.SetClock(func() time.Time { tick++; return t0.Add(time.Duration(tick) * time.Minute) })
	snap := s.TakeSnapshotFiles(map[string][]byte{"train.py": []byte("x")}, "wip")

	j := NewJournal()
	j.SetClock(func() time.Time { tick++; return t0.Add(time.Duration(tick) * time.Minute) })
	j.Record("python train.py", "loss=2.1", 0, snap.ID)
	j.Record("python train.py --lr 0.01", "loss=1.7", 0, snap.ID)
	j.Record("rm -rf results", "", 1, "")
	if len(j.entries) != 3 {
		t.Fatalf("len = %d", len(j.entries))
	}

	doc, err := j.BuildProv(s)
	if err != nil {
		t.Fatal(err)
	}
	st := doc.Stats()
	if st.Activities != 3 {
		t.Errorf("activities = %d", st.Activities)
	}
	// Timeline edges: cmd1->cmd0, cmd2->cmd1.
	if got := len(relationsOfKind(doc, "wasInformedBy")); got != 2 {
		t.Errorf("timeline edges = %d", got)
	}
	// Snapshot used twice.
	if got := len(relationsOfKind(doc, "used")); got != 2 {
		t.Errorf("used edges = %d", got)
	}
	// Outputs recorded for the two successful runs only.
	if st.Entities != 3 { // 2 outputs + 1 snapshot
		t.Errorf("entities = %d", st.Entities)
	}
}

func TestDiffQuickRandomMutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		a := make([]string, n)
		for i := range a {
			a[i] = string(rune('a' + rng.Intn(4)))
		}
		b := append([]string(nil), a...)
		// Random mutations.
		for k := 0; k < rng.Intn(6); k++ {
			switch {
			case len(b) > 0 && rng.Intn(2) == 0:
				b = append(b[:rng.Intn(len(b))], b[min(rng.Intn(len(b))+1, len(b)):]...)
			default:
				pos := 0
				if len(b) > 0 {
					pos = rng.Intn(len(b))
				}
				b = append(b[:pos], append([]string{"NEW"}, b[pos:]...)...)
			}
		}
		got, err := Apply(a, DiffLines(a, b))
		if err != nil {
			return false
		}
		return strings.Join(got, "\x00") == strings.Join(b, "\x00")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Apply reconstructs b from a and a diff; it errors if the diff does
// not match a. It is the oracle DiffLines is checked against.
func Apply(a []string, ops []Op) ([]string, error) {
	var out []string
	i := 0
	for _, op := range ops {
		switch op.Kind {
		case OpEqual:
			if i >= len(a) || a[i] != op.Line {
				return nil, fmt.Errorf("devtrack: diff mismatch at line %d", i)
			}
			out = append(out, a[i])
			i++
		case OpDelete:
			if i >= len(a) || a[i] != op.Line {
				return nil, fmt.Errorf("devtrack: diff mismatch at line %d", i)
			}
			i++
		case OpInsert:
			out = append(out, op.Line)
		default:
			return nil, fmt.Errorf("devtrack: bad op %q", op.Kind)
		}
	}
	if i != len(a) {
		return nil, fmt.Errorf("devtrack: diff did not consume input (%d of %d lines)", i, len(a))
	}
	return out, nil
}

// relationsOfKind returns the relations of d of the given kind, in the
// document's order.
func relationsOfKind(d *prov.Document, kind prov.RelationKind) []*prov.Relation {
	var out []*prov.Relation
	for _, r := range d.Relations {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}
