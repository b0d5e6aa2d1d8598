package prov

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// PROV-JSON serialization per the W3C PROV-JSON member submission:
// a top-level object with a "prefix" section and one section per element
// class / relation kind, each mapping identifiers to attribute records,
// written from a document's records by jsonEmitter.

// MarshalJSON serializes the document to PROV-JSON with deterministic
// (sorted) key order.
func (d *Document) MarshalJSON() ([]byte, error) { return d.marshal(false), nil }

// MarshalIndent renders the document as indented PROV-JSON.
func (d *Document) MarshalIndent() ([]byte, error) { return d.marshal(true), nil }

func (d *Document) marshal(indent bool) []byte {
	w := recordWalks.Get().(*recordWalk)
	defer w.release()
	w.rs.fromDocument(d)
	return w.js.emit(&w.rs, indent)
}

// DocumentJSON returns the document of blob, a binary document
// ParseBinary accepts, as indented PROV-JSON: the bytes MarshalIndent
// writes for the document ParseBinary decodes, without decoding it.
func DocumentJSON(blob []byte) ([]byte, error) { return blobJSON(blob, nil, false) }

// SubgraphJSON returns, as indented PROV-JSON, the sub-document of
// blob, a binary document ParseBinary accepts, that nodes induce: the
// elements nodes names and the relations both of whose endpoints it
// names, under every namespace of the document. The relations are
// numbered afresh in the blob's order, as generated ids (_:u1, _:g2,
// ...) in one sequence over every kind. nodes is sorted in place.
func SubgraphJSON(blob []byte, nodes []QName) ([]byte, error) {
	slices.Sort(nodes)
	return blobJSON(blob, nodes, true)
}

// blobJSON walks blob, keeping what keep names if filtered, and emits
// the records as indented PROV-JSON.
func blobJSON(blob []byte, keep []QName, filtered bool) ([]byte, error) {
	w := getRecordWalk(blob, true)
	defer w.release()
	w.keep, w.filtered = keep, filtered
	if err := w.walk(); err != nil {
		return nil, err
	}
	for i, r := range w.rs.rels {
		if filtered {
			w.rs.rels[i].id = relID(r.kind, i+1)
		}
	}
	return w.js.emit(&w.rs, true), nil
}

// jsonSections names the members of a PROV-JSON document in the order
// they are written in, by name.
var jsonSections = [...]string{"actedOnBehalfOf", "activity", "agent", "alternateOf", "entity", "hadMember",
	"prefix", "specializationOf", "used", "wasAssociatedWith", "wasAttributedTo", "wasDerivedFrom",
	"wasEndedBy", "wasGeneratedBy", "wasInformedBy", "wasStartedBy"}

// jsonEmitter writes records as PROV-JSON, compact or indented by two
// spaces: the bytes encoding/json writes for the document as maps of
// maps, and json.Indent makes of them (json_oracle_test.go). That is:
//   - the sections by name, "prefix" always and the others when they
//     hold a record; no relation of a kind outside AllRelationKinds;
//   - the bindings by prefix, each class's elements and each kind's
//     relations by id, and every record's members by key; of two
//     relations of one kind with one id, the later one;
//   - an activity's times as prov:startTime and prov:endTime, a
//     relation's endpoints as its two role members and its time as
//     prov:time, each replacing an attribute of the same key;
//   - strings escaped as encoding/json escapes them (appendJSONString).
type jsonEmitter struct {
	buf    []byte
	indent bool
	depth  int
	// empty holds while the object opened last has no member.
	empty bool
	rels  []int32 // the relations of one kind, by id
	lit   []byte  // a typed literal's text
}

// emit returns the PROV-JSON of rs, whose records are in canonical
// order but for the relations, in a slice of its own.
func (e *jsonEmitter) emit(rs *docRecords, indent bool) []byte {
	e.buf, e.indent, e.depth = e.buf[:0], indent, 0
	e.open()
	for _, sec := range jsonSections {
		switch sec {
		case "prefix":
			e.key(sec)
			e.open()
			for _, b := range rs.ns {
				e.key(b.prefix)
				e.buf = appendJSONString(e.buf, b.uri)
			}
			e.close()
		case "entity":
			e.elements(rs, sec, 0)
		case "activity":
			e.elements(rs, sec, activityClass)
		case "agent":
			e.elements(rs, sec, 2)
		default:
			e.relations(rs, RelationKind(sec))
		}
	}
	e.close()
	return slices.Clone(e.buf)
}

func (e *jsonEmitter) elements(rs *docRecords, sec string, c int) {
	if len(rs.elems[c]) == 0 {
		return
	}
	e.key(sec)
	e.open()
	for _, el := range rs.elems[c] {
		lifted := make([]recAttr, 0, 2)
		if !el.end.IsZero() {
			lifted = append(lifted, recAttr{"prov:endTime", Time(el.end)})
		}
		if !el.start.IsZero() {
			lifted = append(lifted, recAttr{"prov:startTime", Time(el.start)})
		}
		e.key(el.id)
		e.record(rs.attrsOf(el.attrs), lifted)
	}
	e.close()
}

func (e *jsonEmitter) relations(rs *docRecords, kind RelationKind) {
	e.rels = e.rels[:0]
	for i := range rs.rels {
		if rs.rels[i].kind == kind {
			e.rels = append(e.rels, int32(i))
		}
	}
	if len(e.rels) == 0 {
		return
	}
	byID := func(a, b int32) int { return strings.Compare(rs.rels[a].id, rs.rels[b].id) }
	if !slices.IsSortedFunc(e.rels, byID) {
		slices.SortStableFunc(e.rels, byID)
	}
	subjRole, objRole, _ := RelationRoles(kind)
	e.key(string(kind))
	e.open()
	for j, i := range e.rels {
		r := &rs.rels[i]
		if j+1 < len(e.rels) && rs.rels[e.rels[j+1]].id == r.id {
			continue // a later relation has the id
		}
		lifted := append(make([]recAttr, 0, 3), recAttr{subjRole, Ref(QName(r.subject))}, recAttr{objRole, Ref(QName(r.object))})
		if !r.t.IsZero() {
			lifted = append(lifted, recAttr{"prov:time", Time(r.t)})
		}
		slices.SortFunc(lifted, byKey)
		e.key(r.id)
		e.record(rs.attrsOf(r.attrs), lifted)
	}
	e.close()
}

// record writes an attribute record: attrs, sorted and unique by key,
// merged with lifted, which is too and wins a key both have.
func (e *jsonEmitter) record(attrs, lifted []recAttr) {
	e.open()
	for len(attrs) > 0 || len(lifted) > 0 {
		switch {
		case len(lifted) == 0 || len(attrs) > 0 && attrs[0].key < lifted[0].key:
			e.member(attrs[0])
			attrs = attrs[1:]
		default:
			if len(attrs) > 0 && attrs[0].key == lifted[0].key {
				attrs = attrs[1:]
			}
			e.member(lifted[0])
			lifted = lifted[1:]
		}
	}
	e.close()
}

func (e *jsonEmitter) member(a recAttr) { e.key(a.key); e.value(a.val) }

// value writes v in PROV-JSON attribute form: a string or a boolean
// bare, any other kind as a typed literal {"$": ..., "type": ...}.
func (e *jsonEmitter) value(v Value) {
	switch v.Kind() {
	case KindInt:
		e.lit = strconv.AppendInt(e.lit[:0], v.int(), 10)
		e.typed("xsd:long")
	case KindFloat:
		f := v.float()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			e.lit = append(e.lit[:0], formatSpecialFloat(f)...)
		} else {
			e.lit = strconv.AppendFloat(e.lit[:0], f, 'g', -1, 64)
		}
		e.typed("xsd:double")
	case KindBool:
		e.buf = strconv.AppendBool(e.buf, v.bool())
	case KindTime:
		e.lit = v.time().AppendFormat(e.lit[:0], time.RFC3339Nano)
		e.typed("xsd:dateTime")
	case KindRef:
		e.lit = append(e.lit[:0], v.s...)
		e.typed("prov:QUALIFIED_NAME")
	default: // KindString and anything unknown (the zero Value is Str(""))
		e.buf = appendJSONString(e.buf, v.s)
	}
}

// typed writes the typed literal of e.lit and typ.
func (e *jsonEmitter) typed(typ string) {
	e.open()
	e.key("$")
	e.buf = appendJSONString(e.buf, e.lit)
	e.key("type")
	e.buf = appendJSONString(e.buf, typ)
	e.close()
}

func (e *jsonEmitter) open() {
	e.buf = append(e.buf, '{')
	e.depth++
	e.empty = true
}

// key starts a member of the open object.
func (e *jsonEmitter) key(k string) {
	if !e.empty {
		e.buf = append(e.buf, ',')
	}
	e.empty = false
	e.newline()
	e.buf = appendJSONString(e.buf, k)
	e.buf = append(e.buf, ':')
	if e.indent {
		e.buf = append(e.buf, ' ')
	}
}

// close ends the open object; an empty one stays "{}".
func (e *jsonEmitter) close() {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.empty = false
	e.buf = append(e.buf, '}')
}

// newline starts a line of the indented form at the open object's depth,
// which is at most 4: the document, a section, a record, a typed literal.
func (e *jsonEmitter) newline() {
	if e.indent {
		e.buf = append(e.buf, "\n          "[:1+2*e.depth]...)
	}
}

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it: '"' and '\\' by a backslash; \b, \f, \n, \r and \t by
// their short forms and the other control characters, '<', '>' and
// '&' as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; and each byte
// of invalid UTF-8 as \ufffd.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
