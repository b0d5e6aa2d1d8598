package prov

import (
	"errors"
	"fmt"
)

// ValidationIssue describes one problem found by Validate.
type ValidationIssue struct {
	Severity string // "error" or "warning"
	Message  string
}

// ErrInvalidDocument is wrapped by Validate when errors are present.
var ErrInvalidDocument = errors.New("prov: invalid document")

// expectedNodeKinds gives, per relation kind, the required node classes
// of (subject, object). Empty string means "entity, activity or agent".
var expectedNodeKinds = map[RelationKind][2]string{
	RelUsed:             {"activity", "entity"},
	RelWasGeneratedBy:   {"entity", "activity"},
	RelWasAssociatedW:   {"activity", "agent"},
	RelWasAttributedTo:  {"entity", "agent"},
	RelWasDerivedFrom:   {"entity", "entity"},
	RelWasInformedBy:    {"activity", "activity"},
	RelActedOnBehalfOf:  {"agent", "agent"},
	RelWasStartedBy:     {"activity", "entity"},
	RelWasEndedBy:       {"activity", "entity"},
	RelHadMember:        {"entity", "entity"},
	RelSpecializationOf: {"entity", "entity"},
	RelAlternateOf:      {"entity", "entity"},
}

// Validate checks the document for structural problems: dangling relation
// endpoints, wrong endpoint classes, invalid qualified names, activities
// whose end precedes their start, and unknown namespace prefixes. It
// returns the full issue list and a non-nil error if any issue has
// severity "error".
func (d *Document) Validate() ([]ValidationIssue, error) {
	var issues []ValidationIssue
	addErr := func(format string, args ...interface{}) {
		issues = append(issues, ValidationIssue{Severity: "error", Message: fmt.Sprintf(format, args...)})
	}
	addWarn := func(format string, args ...interface{}) {
		issues = append(issues, ValidationIssue{Severity: "warning", Message: fmt.Sprintf(format, args...)})
	}

	checkQName := func(what string, q QName) {
		if !q.Valid() {
			addErr("%s has invalid qualified name %q", what, q)
			return
		}
		if _, ok := d.Namespaces.Lookup(q.Prefix()); !ok {
			addWarn("%s uses unregistered namespace prefix %q", what, q.Prefix())
		}
	}

	// Element checks iterate the maps directly: the overwhelmingly
	// common all-valid document then allocates nothing, at the cost of
	// unordered issues when elements ARE broken (relation issues below
	// keep their slice order; nothing relies on element-issue order).
	for id := range d.Entities {
		checkQName("entity", id)
	}
	for id := range d.Agents {
		checkQName("agent", id)
	}
	for id, a := range d.Activities {
		checkQName("activity", id)
		if !a.StartTime.IsZero() && !a.EndTime.IsZero() && a.EndTime.Before(a.StartTime) {
			addErr("activity %s ends (%s) before it starts (%s)", id, a.EndTime, a.StartTime)
		}
	}

	// checkEnd looks a relation endpoint up once: NodeKind's "" is a
	// missing node.
	checkEnd := func(r *Relation, role string, id QName, want string) {
		switch got := d.NodeKind(id); {
		case got == "":
			addErr("relation %s (%s) references missing %s %s", r.ID, r.Kind, role, id)
		case want != "" && got != want:
			addErr("relation %s (%s) %s %s is a %s, want %s", r.ID, r.Kind, role, id, got, want)
		}
	}
	for _, r := range d.Relations {
		want, ok := expectedNodeKinds[r.Kind]
		if !ok {
			addErr("relation %s has unsupported kind %q", r.ID, r.Kind)
			continue
		}
		checkEnd(r, "subject", r.Subject, want[0])
		checkEnd(r, "object", r.Object, want[1])
	}

	for _, iss := range issues {
		if iss.Severity == "error" {
			return issues, fmt.Errorf("%w: %d issue(s), first: %s", ErrInvalidDocument, len(issues), issues[0].Message)
		}
	}
	return issues, nil
}
