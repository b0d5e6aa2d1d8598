package prov

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/jsonscan"
)

// The PROV-JSON decoder: one pass of a jsonscan.Scanner over the input
// that collects the document's records (docRecords) — no encoding/json,
// no reflection, no intermediate value tree — which ParseJSON links
// into a Document and TranscodeJSON writes as a binary blob. The
// scanner may be the caller's, positioned on a document inside a larger
// text (TranscodeJSON); ParseJSON reads a text that is one document.
// What it accepts, and what it makes of it:
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
// The strings a parsed document keeps are cut from a few shared chunks
// (see stringArena) and its records from one slab per class, so a parse
// allocates per attribute bag, not per field or record, and the
// document holds on to nothing of the input. The transcoder's strings
// are views of the input and its records pooled scratch: past an
// escaped string, the blob is all it allocates.

// ParseJSON parses PROV-JSON bytes into a new document. It keeps no
// reference to data.
func ParseJSON(data []byte) (*Document, error) {
	sc := jsonscan.New(data)
	d, invalid, err := decode(&sc, false)
	if d != nil {
		defer d.release()
	}
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return nil, fmt.Errorf("prov: invalid PROV-JSON: %w", err)
	}
	if invalid != nil {
		return nil, invalid
	}
	doc := d.rs.link()
	doc.relSeq = d.relSeq
	return doc, nil
}

// TranscodeJSON decodes the one JSON value at sc's cursor as a
// PROV-JSON document, consuming exactly that value, and appends the
// document's binary encoding to dst: the bytes AppendBinary writes for
// the document ParseJSON makes of the value, without making it. A
// caller can thus transcode a document that stands inside a larger JSON
// text without a separate scan. err is a syntax error of the scanner's
// input: it ends the scan and leaves the cursor anywhere. Otherwise the
// value has been consumed and checked to its last byte, and invalid
// says what is wrong with it, if anything:
//
//   - the value is no PROV-JSON document (not an object, or content the
//     decoder rejects): blob is dst and st is zero;
//   - the document fails Validate, and invalid is Validate's error,
//     ErrInvalidDocument with the same count and first issue: blob and
//     st are still the document's.
//
// The checks run over the records the encoder sorts, not a Document,
// and the blob keeps no reference to the input.
func TranscodeJSON(dst []byte, sc *jsonscan.Scanner) (blob []byte, st Stats, invalid, err error) {
	d, invalid, err := decode(sc, true)
	if d != nil {
		defer d.release()
	}
	if err != nil || invalid != nil {
		return dst, Stats{}, invalid, err
	}
	blob = d.e.emit(dst, &d.rs)
	_, invalid = d.rs.validate(&d.e, false)
	return blob, d.rs.stats(), invalid, nil
}

// decode scans the value at sc's cursor, a JSON object, into a pooled
// decoder — nil for any other value — and puts its records in canonical
// order, or reports why they make no document. A viewing decoder's
// strings are views of the input (stringArena).
func decode(sc *jsonscan.Scanner, view bool) (d *decoder, invalid, err error) {
	if sc.Peek() != '{' {
		if err := sc.Skip(); err != nil {
			return nil, nil, err
		}
		return nil, errNotObject, nil
	}
	d = decoders.Get().(*decoder)
	// The decoder scans with a copy of sc, which it hands back: a
	// pointer kept in the decoder would move the caller's scanner to
	// the heap.
	d.sc = *sc
	// Kept strings are a fraction of the input — typically a fifth to a
	// third; a chunk an eighth its size wastes little at either end.
	d.strs = stringArena{view: view, chunk: min(4096, max(64, sc.Remaining()/8))}
	err = d.scan()
	*sc = d.sc
	if err != nil {
		return d, nil, err
	}
	return d, d.canonical(), nil
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

// classOf is the element class of an element section.
func classOf(sec int) int {
	switch sec {
	case secEntity:
		return 0
	case secActivity:
		return activityClass
	}
	return 2
}

// decoder is the state of one ParseJSON or TranscodeJSON call. Elements
// are collected in d.rs.elems, relations per kind, namespace bindings
// apart, every record's attributes in input order in one span of
// d.rs.attrs; a repeated section simply starts its records over, and
// canonical puts what the last occurrences left in canonical order.
// Pooled.
type decoder struct {
	rs   docRecords
	e    binEmitter // TranscodeJSON's
	sc   jsonscan.Scanner
	strs stringArena

	ns   []nsBinding // the prefix section's bindings, in input order
	rels [numRelationKinds][]relRec
	// relSeq counts the relation ids canonical generates.
	relSeq int
	// canonical's sort scratch for one class's elements and one kind's
	// relations.
	elemSort sortScratch[elemRec]
	relSort  sortScratch[relRec]

	// bad holds, per section, the first thing wrong with the content of
	// its latest occurrence. Such an error does not stop the scan: the
	// rest of the input must still prove well-formed, and a later
	// occurrence of the section may replace the faulty one.
	bad [secRelations + numRelationKinds]error
	sec int // the section being decoded
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// release empties d, dropping every string of the input and every
// chunk of kept strings it refers to, and pools it.
func (d *decoder) release() {
	d.rs.reset()
	d.e.strs = clearSlice(d.e.strs)
	d.ns = clearSlice(d.ns)
	for i := range d.rels {
		d.rels[i] = clearSlice(d.rels[i])
	}
	d.sc, d.strs, d.relSeq, d.bad = jsonscan.Scanner{}, stringArena{}, 0, [len(d.bad)]error{}
	decoders.Put(d)
}

// keep returns the value of string token t as a string the decoder's
// records may hold (stringArena).
func (d *decoder) keep(t jsonscan.Str) string { return d.strs.keep(d.sc.Bytes(t)) }

// fail records err against the current section unless an earlier error
// already stands.
func (d *decoder) fail(err error) {
	if d.bad[d.sec] == nil {
		d.bad[d.sec] = err
	}
}

// scan scans the object at the cursor. The errors it returns are
// syntax errors and end the scan.
func (d *decoder) scan() error {
	return d.object(func(key jsonscan.Str) error {
		d.sec = sectionOf(d.sc.Bytes(key))
		if d.sec < 0 {
			return d.sc.Skip()
		}
		d.bad[d.sec] = nil
		switch d.sec {
		case secPrefix:
			d.ns = clearSlice(d.ns)
		case secEntity, secAgent, secActivity:
			c := classOf(d.sec)
			d.rs.elems[c] = clearSlice(d.rs.elems[c])
		default:
			d.rels[d.sec-secRelations] = clearSlice(d.rels[d.sec-secRelations])
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
		d.ns = append(d.ns, nsBinding{id, uri})
		return nil
	case secEntity, secAgent, secActivity:
		attrs, err := d.attrs(nil)
		c := classOf(d.sec)
		d.rs.elems[c] = append(d.rs.elems[c], elemRec{id: id, attrs: attrs})
		return err
	}
	i := d.sec - secRelations
	r := relRec{id: id, kind: AllRelationKinds[i]}
	var err error
	r.attrs, err = d.attrs(&r)
	d.rels[i] = append(d.rels[i], r)
	return err
}

// attrs decodes the record at the cursor, appending its attributes to
// d.rs.attrs in input order. Of a relation r, the two role members are
// its endpoints instead, the last of each counting.
func (d *decoder) attrs(r *relRec) (attrSpan, error) {
	s := attrSpan{off: len(d.rs.attrs)}
	var subjRole, objRole string
	if r != nil {
		subjRole, objRole, _ = RelationRoles(r.kind)
	}
	err := d.object(func(key jsonscan.Str) error {
		v, bad, err := scanValue(&d.sc, &d.strs)
		if err != nil {
			return err
		}
		if bad != nil {
			d.fail(bad)
			return nil
		}
		k := d.sc.Bytes(key)
		switch {
		case r == nil:
		case string(k) == subjRole:
			r.subject = string(roleName(v))
			return nil
		case string(k) == objRole:
			r.object = string(roleName(v))
			return nil
		}
		d.rs.attrs = append(d.rs.attrs, recAttr{d.strs.keep(k), v})
		return nil
	})
	s.end = len(d.rs.attrs)
	return s, err
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

// canonical reports the first section error, in section order, or the
// first relation left without an endpoint, or puts the records in
// canonical order (docRecords):
//   - the bindings are the default namespaces' and the prefix
//     section's, sorted by prefix, a later binding of a prefix
//     replacing an earlier one;
//   - each class's elements and each kind's relations are sorted by id,
//     and of several with one id the one decoded last is kept, whole;
//   - each record's attributes are sorted by key, and of a key that
//     occurs twice the last value is kept;
//   - prov:startTime / prov:endTime of an activity and prov:time of a
//     relation are lifted into their fields when timeOf reads a time;
//   - relations come by kind (AllRelationKinds), then by id, an empty
//     id replaced by a generated one.
func (d *decoder) canonical() error {
	sectionErr := func(sec int, name string) error {
		if d.bad[sec] == nil {
			return nil
		}
		return fmt.Errorf("prov: invalid %q section: %w", name, d.bad[sec])
	}
	for sec, name := range [...]string{"prefix", "entity", "agent", "activity"} {
		if err := sectionErr(sec, name); err != nil {
			return err
		}
	}
	rs := &d.rs
	rs.ns = append(append(rs.ns[:0], defaultBindings...), d.ns...)
	rs.ns = lastOfEach(rs.ns, nsPrefix, &rs.nsSort)
	for c := range rs.elems {
		rs.elems[c] = lastOfEach(rs.elems[c], elemID, &d.elemSort)
		for i := range rs.elems[c] {
			el := &rs.elems[c][i]
			el.attrs = rs.resolve(el.attrs)
			if c == activityClass {
				el.attrs, el.start = rs.lift(el.attrs, "prov:startTime")
				el.attrs, el.end = rs.lift(el.attrs, "prov:endTime")
			}
		}
	}
	for i, kind := range AllRelationKinds {
		if err := sectionErr(secRelations+i, string(kind)); err != nil {
			return err
		}
		rels := lastOfEach(d.rels[i], relRecID, &d.relSort)
		subjRole, objRole, _ := RelationRoles(kind)
		for j := range rels {
			r := &rels[j]
			if r.subject == "" || r.object == "" {
				return fmt.Errorf("prov: relation %s/%s missing %s or %s", kind, r.id, subjRole, objRole)
			}
			if r.id == "" {
				d.relSeq++
				r.id = relID(kind, d.relSeq)
			}
			r.attrs = rs.resolve(r.attrs)
			r.attrs, r.t = rs.lift(r.attrs, "prov:time")
		}
		rs.rels = append(rs.rels, rels...)
	}
	return nil
}

// lastOfEach sorts s stably by key and keeps, of several items with one
// key, the last. It works in place, zeroes what it drops and returns
// the shortened slice. It sorts the items' positions and then moves
// each kept item once, where sorting the items would move records of
// up to a hundred bytes at every step; x is its scratch.
func lastOfEach[T any](s []T, key func(*T) string, x *sortScratch[T]) []T {
	sorted := true
	for i := 1; i < len(s) && sorted; i++ {
		sorted = key(&s[i-1]) < key(&s[i])
	}
	if sorted {
		return s // as MarshalJSON writes a document
	}
	order := x.order[:0]
	for i := range s {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(key(&s[a]), key(&s[b])) })
	kept := x.kept[:0]
	for j, i := range order {
		if j+1 < len(order) && key(&s[i]) == key(&s[order[j+1]]) {
			continue
		}
		kept = append(kept, s[i])
	}
	n := copy(s, kept)
	clear(s[n:])
	x.order, x.kept = order, clearSlice(kept)
	return s[:n]
}

// sortScratch is lastOfEach's scratch: the positions it sorts and the
// items it keeps.
type sortScratch[T any] struct {
	order []int32
	kept  []T
}

// resolve sorts the attributes of s by key and keeps the last value of
// a repeated key; it returns the shortened span.
func (rs *docRecords) resolve(s attrSpan) attrSpan {
	s.end = s.off + len(lastOfEach(rs.attrsOf(s), attrKey, &rs.attrSort))
	return s
}

// lift takes attribute key out of the resolved span s when timeOf reads
// its value as a time, and returns the time; a value that is no time
// stays an attribute, and the time is zero.
func (rs *docRecords) lift(s attrSpan, key string) (attrSpan, time.Time) {
	a := rs.attrsOf(s)
	i, found := slices.BinarySearchFunc(a, key, func(kv recAttr, key string) int { return strings.Compare(kv.key, key) })
	if !found {
		return s, time.Time{}
	}
	t, ok := timeOf(a[i].val)
	if !ok {
		return s, time.Time{}
	}
	copy(a[i:], a[i+1:])
	a[len(a)-1] = recAttr{}
	s.end--
	return s, t
}

// link makes a Document of the records, whose elements are unique by id
// in each class and whose attributes are unique by key in each record.
// It copies them into one slab per class and one for the relations, and
// each record's attributes into an Attrs map, nil for none; the strings
// are the records'. It is the one records → *Document builder: of
// ParseJSON and of ParseBinary.
func (rs *docRecords) link() *Document {
	ns := &NamespaceSet{byPrefix: make(map[string]string, len(rs.ns))}
	for _, b := range rs.ns {
		ns.byPrefix[b.prefix] = b.uri
	}
	ents, acts, agents := rs.elems[0], rs.elems[activityClass], rs.elems[2]
	doc := &Document{
		Namespaces: ns,
		Entities:   make(map[QName]*Element, len(ents)),
		Activities: make(map[QName]*Activity, len(acts)),
		Agents:     make(map[QName]*Element, len(agents)),
	}
	els := make([]Element, len(ents)+len(agents))
	for i, el := range ents {
		els[i] = Element{ID: QName(el.id), Attrs: rs.bag(el.attrs)}
		doc.Entities[els[i].ID] = &els[i]
	}
	for i, el := range agents {
		g := &els[len(ents)+i]
		*g = Element{ID: QName(el.id), Attrs: rs.bag(el.attrs)}
		doc.Agents[g.ID] = g
	}
	activities := make([]Activity, len(acts))
	for i, el := range acts {
		activities[i] = Activity{Element: Element{ID: QName(el.id), Attrs: rs.bag(el.attrs)}, StartTime: el.start, EndTime: el.end}
		doc.Activities[activities[i].ID] = &activities[i]
	}
	if len(rs.rels) > 0 {
		rels := make([]Relation, len(rs.rels))
		doc.Relations = make([]*Relation, len(rs.rels))
		for i, r := range rs.rels {
			rels[i] = Relation{ID: r.id, Kind: r.kind, Subject: QName(r.subject), Object: QName(r.object), Time: r.t, Attrs: rs.bag(r.attrs)}
			doc.Relations[i] = &rels[i]
		}
	}
	return doc
}

// bag is the attributes of s as an Attrs map; nil for none.
func (rs *docRecords) bag(s attrSpan) Attrs {
	if s.end == s.off {
		return nil
	}
	a := make(Attrs, s.end-s.off)
	for _, kv := range rs.attrsOf(s) {
		a[kv.key] = kv.val
	}
	return a
}

// stats counts the canonical records as Document.Stats counts the
// document they make.
func (rs *docRecords) stats() Stats {
	return Stats{Entities: len(rs.elems[0]), Activities: len(rs.elems[activityClass]), Agents: len(rs.elems[2]), Relations: len(rs.rels)}
}
