package prov

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestTurtleOutputShape(t *testing.T) {
	d := sampleDoc(t)
	ttl := d.Turtle()
	for _, want := range []string{
		"@prefix prov: <http://www.w3.org/ns/prov#> .",
		"ex:dataset a prov:Entity",
		"ex:train_run a prov:Activity",
		"ex:researcher a prov:Agent",
		"prov:startedAtTime",
		"ex:train_run prov:used ex:dataset .",
		"ex:model prov:wasGeneratedBy ex:train_run .",
		`"800000"^^xsd:long`,
	} {
		if !strings.Contains(ttl, want) {
			t.Errorf("turtle missing %q in:\n%s", want, ttl)
		}
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	d := sampleDoc(t)
	back, err := ParseTurtle(d.Turtle())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Fatalf("turtle round-trip mismatch:\norig:\n%s\nback:\n%s", d.ProvN(), back.ProvN())
	}
}

// dedupeRelations drops each relation equal to an earlier one in kind,
// subject, object and time: Turtle writes a set of triples, so a repeat
// does not come back.
func dedupeRelations(d *Document) *Document {
	seen := map[string]bool{}
	kept := d.Relations[:0]
	for _, r := range d.Relations {
		k := fmt.Sprintf("%s|%s|%s|%d", r.Kind, r.Subject, r.Object, r.Time.UnixNano())
		if !seen[k] {
			seen[k] = true
			kept = append(kept, r)
		}
	}
	d.Relations = kept
	return d
}

func TestTurtleRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		d := dedupeRelations(randomDoc(rng))
		back, err := ParseTurtle(d.Turtle())
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, d.Turtle())
		}
		if !d.Equal(back) {
			t.Fatalf("case %d: round-trip mismatch", i)
		}
	}
}

func TestTurtleStringEscaping(t *testing.T) {
	d := NewDocument()
	d.AddEntity("ex:e", Attrs{"ex:note": Str("line1\nline2 \"quoted\" and . dot; semi")})
	back, err := ParseTurtle(d.Turtle())
	if err != nil {
		t.Fatal(err)
	}
	got := back.Entities["ex:e"].Attrs["ex:note"].AsString()
	if got != "line1\nline2 \"quoted\" and . dot; semi" {
		t.Errorf("escaped string = %q", got)
	}
}

func TestParseTurtleErrors(t *testing.T) {
	for _, src := range []string{
		"ex:x a prov:Spaceship .",
		"ex:x prov:used .",         // missing object? parses as <2 fields after split
		`ex:x ex:attr "unclosed .`, // unterminated literal
		"@prefix broken",           // bad prefix
		`ex:orphan ex:attr "v" .`,  // attribute before declaration
	} {
		if _, err := ParseTurtle(src); err == nil {
			t.Errorf("ParseTurtle(%q) should fail", src)
		}
	}
}

func TestTurtleDeterministic(t *testing.T) {
	d := sampleDoc(t)
	if d.Turtle() != d.Turtle() {
		t.Error("turtle output must be deterministic")
	}
}
