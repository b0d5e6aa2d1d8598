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
// endpoints, wrong endpoint classes, relations of unknown kind, invalid
// qualified names, activities whose end precedes their start, and
// unknown namespace prefixes. It returns the full issue list and a
// non-nil error if any issue has severity "error". Issues come in a
// fixed order: the entities', the agents' and the activities', each
// class in id order, then the relations' in the document's order.
//
// The checks are the one validator of this package, which runs over
// the document's records (docRecords.validate): Validate encodes the
// document into scratch to run them, as EncodeDocument does into its
// caller's buffer.
func (d *Document) Validate() ([]ValidationIssue, error) {
	w := recordWalks.Get().(*recordWalk)
	defer w.release()
	w.scratch = w.encode(w.scratch[:0], d)
	return w.rs.validate(&w.bin, true)
}

// issueLog is what the one validator (docRecords.validate) finds: every
// issue when keep is set (Validate), otherwise their count and the
// first one's message (EncodeDocument, TranscodeJSON), which is all the
// error needs.
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
	if !start.IsZero() && !end.IsZero() && end.Before(start) {
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

// validate is the one validator: it runs the checks Validate documents
// over canonical records that e has just written, in Validate's order,
// and returns every issue if keep is set, and the error. An endpoint's
// classes are those the emitter noted for its string. A clean document
// costs no allocation.
func (rs *docRecords) validate(e *binEmitter, keep bool) ([]ValidationIssue, error) {
	l := issueLog{keep: keep}
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
		want, ok := relationKinds[r.kind]
		if !ok {
			l.add("error", "relation %s has unsupported kind %q", r.id, r.kind)
			continue
		}
		l.checkEnd(r.id, r.kind, "subject", QName(r.subject), nodeKind(e.classes[e.ends[2*i]]), want.subjClass)
		l.checkEnd(r.id, r.kind, "object", QName(r.object), nodeKind(e.classes[e.ends[2*i+1]]), want.objClass)
	}
	return l.issues, l.err()
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
