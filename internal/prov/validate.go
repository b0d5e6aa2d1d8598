package prov

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// ValidationIssue describes one problem found by Validate.
type ValidationIssue struct {
	Severity string // "error" or "warning"
	Message  string
}

// ErrInvalidDocument is wrapped by Validate when errors are present.
var ErrInvalidDocument = errors.New("prov: invalid document")

// Validate checks the document for structural problems: dangling relation
// endpoints, wrong endpoint classes, invalid qualified names, activities
// whose end precedes their start, and unknown namespace prefixes. It
// returns the full issue list and a non-nil error if any issue has
// severity "error". Issues come in a fixed order: the entities', the
// agents' and the activities', each class in id order, then the
// relations' in the document's order.
func (d *Document) Validate() ([]ValidationIssue, error) {
	l := issueLog{keep: true}
	// One pass over the maps finds whether any element has an issue and
	// allocates nothing, so the common all-valid document pays for no
	// sort; a document with one has its ids sorted to report them.
	if !d.elementsClean() {
		for _, id := range d.EntityIDs() {
			l.checkQName("entity", id, d.prefixBound(id))
		}
		for _, id := range d.AgentIDs() {
			l.checkQName("agent", id, d.prefixBound(id))
		}
		for _, id := range d.ActivityIDs() {
			a := d.Activities[id]
			l.checkQName("activity", id, d.prefixBound(id))
			l.checkTimes(id, a.StartTime, a.EndTime)
		}
	}
	for _, r := range d.Relations {
		want, ok := relationKinds[r.Kind]
		if !ok {
			l.add("error", "relation %s has unsupported kind %q", r.ID, r.Kind)
			continue
		}
		l.checkEnd(r.ID, r.Kind, "subject", r.Subject, d.NodeKind(r.Subject), want.subjClass)
		l.checkEnd(r.ID, r.Kind, "object", r.Object, d.NodeKind(r.Object), want.objClass)
	}
	return l.issues, l.err()
}

// elementsClean reports whether no element of d has an issue.
func (d *Document) elementsClean() bool {
	for id := range d.Entities {
		if !id.Valid() || !d.prefixBound(id) {
			return false
		}
	}
	for id := range d.Agents {
		if !id.Valid() || !d.prefixBound(id) {
			return false
		}
	}
	for id, a := range d.Activities {
		if !id.Valid() || !d.prefixBound(id) || endsBeforeStart(a.StartTime, a.EndTime) {
			return false
		}
	}
	return true
}

func (d *Document) prefixBound(q QName) bool {
	_, ok := d.Namespaces.Lookup(q.Prefix())
	return ok
}

func endsBeforeStart(start, end time.Time) bool {
	return !start.IsZero() && !end.IsZero() && end.Before(start)
}

// issueLog is what a validation finds: every issue when keep is set
// (Validate), otherwise their count and the first one's message
// (TranscodeJSON), which is all the error needs.
type issueLog struct {
	keep   bool
	issues []ValidationIssue
	n      int
	first  string
	errors bool
}

func (l *issueLog) add(severity, format string, args ...any) {
	if l.keep || l.n == 0 {
		msg := fmt.Sprintf(format, args...)
		if l.n == 0 {
			l.first = msg
		}
		if l.keep {
			l.issues = append(l.issues, ValidationIssue{Severity: severity, Message: msg})
		}
	}
	l.n++
	l.errors = l.errors || severity == "error"
}

// err is Validate's error: nil unless an issue is an error.
func (l *issueLog) err() error {
	if !l.errors {
		return nil
	}
	return fmt.Errorf("%w: %d issue(s), first: %s", ErrInvalidDocument, l.n, l.first)
}

// checkQName checks the id q of an element of class what; bound says
// whether the document binds q's prefix.
func (l *issueLog) checkQName(what string, q QName, bound bool) {
	if !q.Valid() {
		l.add("error", "%s has invalid qualified name %q", what, q)
		return
	}
	if !bound {
		l.add("warning", "%s uses unregistered namespace prefix %q", what, q.Prefix())
	}
}

// checkTimes checks the times of activity id.
func (l *issueLog) checkTimes(id QName, start, end time.Time) {
	if endsBeforeStart(start, end) {
		l.add("error", "activity %s ends (%s) before it starts (%s)", id, end, start)
	}
}

// checkEnd checks the endpoint id of relation relID in role, whose
// node class is got ("" for none) and must be want.
func (l *issueLog) checkEnd(relID string, kind RelationKind, role string, id QName, got, want string) {
	switch {
	case got == "":
		l.add("error", "relation %s (%s) references missing %s %s", relID, kind, role, id)
	case got != want:
		l.add("error", "relation %s (%s) %s %s is a %s, want %s", relID, kind, role, id, got, want)
	}
}

// nodeKinds names the element classes as NodeKind does, in the binary
// format's order.
var nodeKinds = [len(elementClasses)]string{"entity", "activity", "agent"}

// validate runs Validate's checks over canonical records that e has
// just written, in Validate's order, and returns the error Validate
// returns for the document they hold. An endpoint's classes are those
// the emitter noted for its string.
func (rs *docRecords) validate(e *binEmitter) error {
	var l issueLog
	// Ids mostly share a prefix: the last one looked up is remembered.
	prefix, bound, looked := "", false, false
	for _, c := range [...]int{0, 2, activityClass} {
		for i := range rs.elems[c] {
			el := &rs.elems[c][i]
			id := QName(el.id)
			if p := id.Prefix(); !looked || p != prefix {
				prefix, bound, looked = p, rs.prefixBound(p), true
			}
			l.checkQName(nodeKinds[c], id, bound)
			if c == activityClass {
				l.checkTimes(id, el.start, el.end)
			}
		}
	}
	for i := range rs.rels {
		r := &rs.rels[i]
		want := relationKinds[r.kind]
		l.checkEnd(r.id, r.kind, "subject", QName(r.subject), nodeKind(e.classes[e.ends[2*i]]), want.subjClass)
		l.checkEnd(r.id, r.kind, "object", QName(r.object), nodeKind(e.classes[e.ends[2*i+1]]), want.objClass)
	}
	return l.err()
}

// nodeKind is what NodeKind returns for a name of the element classes
// set in classes: the first of entity, activity and agent; "" for none.
func nodeKind(classes uint8) string {
	for c, kind := range nodeKinds {
		if classes&(1<<c) != 0 {
			return kind
		}
	}
	return ""
}

func (rs *docRecords) prefixBound(prefix string) bool {
	_, found := slices.BinarySearchFunc(rs.ns, prefix, func(b nsBinding, p string) int { return strings.Compare(b.prefix, p) })
	return found
}
