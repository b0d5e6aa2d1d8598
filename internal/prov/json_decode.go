package prov

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/jsonscan"
)

// The PROV-JSON decoder: one pass of a jsonscan.Scanner over the input
// that fills a Document directly — no encoding/json, no reflection, no
// intermediate value tree. The scanner may be the caller's, positioned
// on a document inside a larger text (DecodeJSON); ParseJSON is that
// over a text that is one document. What it accepts, and what it makes
// of it:
//
//   - The value is one JSON object (anything else, null included, is
//     invalid), well-formed to its last byte — unknown sections too.
//   - Top-level members named "prefix", "entity", "agent", "activity"
//     or after a relation kind are sections; names match exactly, and
//     any other member ("bundle", "Entity") is ignored. A section is an
//     object or null (empty). A section that occurs twice counts once,
//     as its last occurrence: the earlier one contributes nothing, not
//     even its errors.
//   - A "prefix" value is a string or null (""); bindings are added to
//     the default namespaces.
//   - An element or relation record is an object or null (no
//     attributes). An id that occurs twice in a section names its last
//     record whole; the earlier record is dropped, but must still be
//     valid.
//   - Attribute values are what scanValue accepts. In a record a key
//     that occurs twice keeps its last value.
//   - prov:startTime / prov:endTime of an activity and prov:time of a
//     relation are lifted into their fields when they are xsd:dateTime
//     literals or bare strings in RFC 3339 or the zone-less W3C form
//     (read as UTC), and kept as ordinary attributes when they are
//     anything else.
//   - A relation's two role members name its subject and object: a
//     qualified-name literal, or the string form of any other value. A
//     relation left without either is an error. Relations come out
//     ordered by kind (AllRelationKinds), then by id; an empty id is
//     replaced by a generated one.
//
// The strings the document keeps are cut from a few shared chunks (see
// stringArena) and its records from one slice per section, so a decode
// allocates per attribute bag, not per field or record, and the
// document holds on to nothing of the input.

// UnmarshalJSON parses a PROV-JSON document.
func (d *Document) UnmarshalJSON(data []byte) error {
	fresh, err := ParseJSON(data)
	if err != nil {
		return err
	}
	*d = *fresh
	return nil
}

// ParseJSON parses PROV-JSON bytes into a new document. It keeps no
// reference to data.
func ParseJSON(data []byte) (*Document, error) {
	sc := jsonscan.New(data)
	doc, invalid, err := DecodeJSON(&sc)
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return nil, fmt.Errorf("prov: invalid PROV-JSON: %w", err)
	}
	return doc, invalid
}

// DecodeJSON decodes the one JSON value at sc's cursor as a PROV-JSON
// document, consuming exactly that value, so that a caller can decode a
// document that stands inside a larger JSON text without a separate
// scan. err is a syntax error of the scanner's input: it ends the scan
// and leaves the cursor anywhere. Otherwise the value has been consumed
// and validated to its last byte, and either doc is the document or
// invalid says why the value is none — not an object, or content the
// decoder rejects. The document keeps no reference to the input.
func DecodeJSON(sc *jsonscan.Scanner) (doc *Document, invalid, err error) {
	if sc.Peek() != '{' {
		if err := sc.Skip(); err != nil {
			return nil, nil, err
		}
		return nil, errNotObject, nil
	}
	// The decoder scans with a copy of sc, which it hands back: a
	// pointer kept in the decoder would move the caller's scanner to
	// the heap.
	dec := decoder{sc: *sc, ns: NewNamespaceSet()}
	// Kept strings are a fraction of the input — typically a fifth to a
	// third; a chunk an eighth its size wastes little at either end.
	dec.strs.chunk = min(4096, max(64, sc.Remaining()/8))
	err = dec.document()
	*sc = dec.sc
	if err != nil {
		return nil, nil, err
	}
	doc, invalid = dec.finish()
	return doc, invalid, nil
}

var errNotObject = errors.New("prov: invalid PROV-JSON: the top-level value is not an object")

// Sections in the order their errors are reported: the prefix block,
// the three element classes, then one per relation kind.
const (
	secPrefix = iota
	secEntity
	secAgent
	secActivity
	secRelations // + index into AllRelationKinds
)

const numRelationKinds = 12

// sectionOf maps a top-level member name to its section, -1 for a
// member the decoder ignores.
func sectionOf(name []byte) int {
	switch string(name) {
	case "prefix":
		return secPrefix
	case "entity":
		return secEntity
	case "agent":
		return secAgent
	case "activity":
		return secActivity
	}
	for i, kind := range AllRelationKinds {
		if string(kind) == string(name) {
			return secRelations + i
		}
	}
	return -1
}

// decoder is the state of one DecodeJSON call. Records are collected in
// one slice per section and only linked into the document's maps by
// finish, so a repeated section simply starts its slice over.
type decoder struct {
	sc   jsonscan.Scanner
	strs stringArena

	ns       *NamespaceSet
	entities []Element
	agents   []Element
	acts     []Activity
	rels     [numRelationKinds][]Relation

	// bad holds, per section, the first thing wrong with the content of
	// its latest occurrence. Such an error does not stop the scan: the
	// rest of the input must still prove well-formed, and a later
	// occurrence of the section may replace the faulty one.
	bad [secRelations + numRelationKinds]error
	sec int // the section being decoded
}

// keep returns the value of string token t as a string the document
// may hold on to.
func (d *decoder) keep(t jsonscan.Str) string { return d.strs.keep(d.sc.Bytes(t)) }

// fail records err against the current section unless an earlier error
// already stands.
func (d *decoder) fail(err error) {
	if d.bad[d.sec] == nil {
		d.bad[d.sec] = err
	}
}

// document scans the object at the cursor. The errors it returns are
// syntax errors and end the scan.
func (d *decoder) document() error {
	return d.object(func(key jsonscan.Str) error {
		d.sec = sectionOf(d.sc.Bytes(key))
		if d.sec < 0 {
			return d.sc.Skip()
		}
		d.bad[d.sec] = nil
		switch d.sec {
		case secPrefix:
			d.ns = NewNamespaceSet()
		case secEntity:
			d.entities = d.entities[:0]
		case secAgent:
			d.agents = d.agents[:0]
		case secActivity:
			d.acts = d.acts[:0]
		default:
			d.rels[d.sec-secRelations] = d.rels[d.sec-secRelations][:0]
		}
		return d.object(d.member)
	})
}

// object walks the members of the object at the cursor, calling member
// with the cursor on each one's value. null is an object without
// members; any other value is skipped and recorded as the current
// section's error.
func (d *decoder) object(member func(key jsonscan.Str) error) error {
	switch d.sc.Peek() {
	case '{':
	case 'n':
		return d.sc.Literal("null")
	default:
		d.fail(errors.New("expected an object"))
		return d.sc.Skip()
	}
	if err := d.sc.OpenObject(); err != nil {
		return err
	}
	for {
		key, ok, err := d.sc.NextKey()
		if err != nil || !ok {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
	}
}

// member decodes one member of the current section: a namespace
// binding, or an element or relation record keyed by its id.
func (d *decoder) member(key jsonscan.Str) error {
	id := d.keep(key)
	switch d.sec {
	case secPrefix:
		uri := ""
		switch d.sc.Peek() {
		case '"':
			t, err := d.sc.String()
			if err != nil {
				return err
			}
			uri = d.keep(t)
		case 'n':
			if err := d.sc.Literal("null"); err != nil {
				return err
			}
		default:
			d.fail(fmt.Errorf("namespace %q is not a string", id))
			return d.sc.Skip()
		}
		d.ns.Register(id, uri)
		return nil
	case secEntity:
		d.entities = append(d.entities, Element{ID: QName(id)})
		e := &d.entities[len(d.entities)-1]
		return d.attrs(func(k []byte, v Value) { d.setAttr(&e.Attrs, k, v) })
	case secAgent:
		d.agents = append(d.agents, Element{ID: QName(id)})
		g := &d.agents[len(d.agents)-1]
		return d.attrs(func(k []byte, v Value) { d.setAttr(&g.Attrs, k, v) })
	case secActivity:
		d.acts = append(d.acts, Activity{Element: Element{ID: QName(id)}})
		a := &d.acts[len(d.acts)-1]
		return d.attrs(func(k []byte, v Value) {
			switch string(k) {
			case "prov:startTime":
				a.StartTime = d.liftTime(&a.Attrs, k, v)
			case "prov:endTime":
				a.EndTime = d.liftTime(&a.Attrs, k, v)
			default:
				d.setAttr(&a.Attrs, k, v)
			}
		})
	}
	i := d.sec - secRelations
	kind := AllRelationKinds[i]
	subjRole, objRole, _ := RelationRoles(kind)
	d.rels[i] = append(d.rels[i], Relation{ID: id, Kind: kind})
	r := &d.rels[i][len(d.rels[i])-1]
	return d.attrs(func(k []byte, v Value) {
		switch string(k) {
		case subjRole:
			r.Subject = roleName(v)
		case objRole:
			r.Object = roleName(v)
		case "prov:time":
			r.Time = d.liftTime(&r.Attrs, k, v)
		default:
			d.setAttr(&r.Attrs, k, v)
		}
	})
}

// attrs decodes the record at the cursor, handing each attribute to
// set in input order, so the last occurrence of a key wins.
func (d *decoder) attrs(set func(key []byte, v Value)) error {
	return d.object(func(key jsonscan.Str) error {
		v, bad, err := scanValue(&d.sc, &d.strs)
		if err != nil {
			return err
		}
		if bad != nil {
			d.fail(bad)
			return nil
		}
		set(d.sc.Bytes(key), v)
		return nil
	})
}

// setAttr stores v under k, allocating the bag on its first attribute:
// records without attributes keep nil Attrs, as ParseBinary's do.
func (d *decoder) setAttr(attrs *Attrs, k []byte, v Value) {
	if *attrs == nil {
		*attrs = make(Attrs)
	}
	(*attrs)[d.strs.keep(k)] = v
}

// liftTime reads the value of key k — prov:startTime, prov:endTime or
// prov:time, which the caller keeps in a field — as that field's new
// time, and removes an earlier k from attrs. A value that is no time
// (see timeOf) is stored under k like any attribute instead, and the
// field is cleared: of a repeated key the last value counts.
func (d *decoder) liftTime(attrs *Attrs, k []byte, v Value) time.Time {
	if t, ok := timeOf(v); ok {
		delete(*attrs, string(k))
		return t
	}
	d.setAttr(attrs, k, v)
	return time.Time{}
}

// w3cDateTime is the zone-less xsd:dateTime form the W3C PROV-JSON
// examples write ("2012-04-01T15:21:00"); such a time is read as UTC.
const w3cDateTime = "2006-01-02T15:04:05.999999999"

// timeOf returns the instant v stands for: an xsd:dateTime literal's,
// or that of a bare string in RFC 3339 or the zone-less W3C form — the
// forms the W3C examples and the Python prov package write — in UTC.
func timeOf(v Value) (time.Time, bool) {
	if t, ok := v.AsTime(); ok {
		return t, true
	}
	if v.Kind() != KindString {
		return time.Time{}, false
	}
	for _, layout := range [...]string{time.RFC3339Nano, w3cDateTime} {
		if t, err := time.Parse(layout, v.s); err == nil {
			return t.UTC(), true
		}
	}
	return time.Time{}, false
}

// roleName reads a relation endpoint: a qualified-name literal, or
// whatever else stands there by its string form.
func roleName(v Value) QName {
	if q, ok := v.AsRef(); ok {
		return q
	}
	return QName(v.AsString())
}

// finish reports the first section error, orders the relations and
// links the collected records into a document.
func (d *decoder) finish() (*Document, error) {
	sectionErr := func(sec int, name string) error {
		if d.bad[sec] == nil {
			return nil
		}
		return fmt.Errorf("prov: invalid %q section: %w", name, d.bad[sec])
	}
	for sec, name := range [...]string{"prefix", "entity", "agent", "activity"} {
		if err := sectionErr(sec, name); err != nil {
			return nil, err
		}
	}
	doc := &Document{
		Namespaces: d.ns,
		Entities:   make(map[QName]*Element, len(d.entities)),
		Activities: make(map[QName]*Activity, len(d.acts)),
		Agents:     make(map[QName]*Element, len(d.agents)),
	}
	// Later records overwrite earlier ones of the same id.
	for i := range d.entities {
		doc.Entities[d.entities[i].ID] = &d.entities[i]
	}
	for i := range d.agents {
		doc.Agents[d.agents[i].ID] = &d.agents[i]
	}
	for i := range d.acts {
		doc.Activities[d.acts[i].ID] = &d.acts[i]
	}

	nRels := 0
	for i := range d.rels {
		nRels += len(d.rels[i])
	}
	if nRels > 0 {
		doc.Relations = make([]*Relation, 0, nRels)
	}
	for i, kind := range AllRelationKinds {
		if err := sectionErr(secRelations+i, string(kind)); err != nil {
			return nil, err
		}
		first := len(doc.Relations)
		for j := range d.rels[i] {
			doc.Relations = append(doc.Relations, &d.rels[i][j])
		}
		doc.Relations = doc.Relations[:first+len(lastByID(doc.Relations[first:]))]
		subjRole, objRole, _ := RelationRoles(kind)
		for _, r := range doc.Relations[first:] {
			if r.Subject == "" || r.Object == "" {
				return nil, fmt.Errorf("prov: relation %s/%s missing %s or %s", kind, r.ID, subjRole, objRole)
			}
			if r.ID == "" {
				r.ID = doc.nextRelID(kind)
			}
		}
	}
	return doc, nil
}

// lastByID orders one kind's relations, given in input order, by id,
// and keeps of several with the same id the one decoded last. It works
// in place and returns the shortened slice.
func lastByID(rels []*Relation) []*Relation {
	inOrder := true
	for i := 1; i < len(rels) && inOrder; i++ {
		inOrder = rels[i-1].ID < rels[i].ID
	}
	if inOrder {
		return rels // as MarshalJSON writes them
	}
	slices.SortStableFunc(rels, func(a, b *Relation) int { return strings.Compare(a.ID, b.ID) })
	out := rels[:0]
	for i, r := range rels {
		if i+1 < len(rels) && rels[i+1].ID == r.ID {
			continue
		}
		out = append(out, r)
	}
	return out
}
