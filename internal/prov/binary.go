package prov

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"
)

// Compact binary serialization for documents. This is the journal/wire
// form behind the WAL record codec (provstore): length-prefixed varint
// fields with per-document string interning, so the hot recovery and
// replication paths decode without encoding/json's re-scan and with one
// allocation per *unique* string instead of one per field.
//
// Layout (all integers varint unless noted, little-endian for fixed):
//
//	byte    0x01                   version tag (never '{', which marks JSON)
//	varint  nNamespaces            then per namespace: str prefix, str uri
//	varint  nEntities              then per entity:    str id, attrs
//	varint  nActivities            then per activity:  str id, attrs, time start, time end
//	varint  nAgents                then per agent:     str id, attrs
//	varint  nRelations             then per relation:  str id, str kind,
//	                               str subject, str object, time, attrs
//
//	attrs:  varint n, then per attribute: str key, value
//	value:  byte kind, then kind-specific payload (see appendValue)
//	time:   byte present (0 = zero time), then zigzag unix seconds,
//	        varint nanoseconds
//	str:    varint token; 0 = new string (varint len + bytes, appended to
//	        the intern table), else intern-table index + 1
//
// Decoding mirrors ParseJSON's semantics exactly: times come back UTC
// (Time() normalizes on the JSON path too), records without attributes
// keep nil Attrs, and the relation-id counter restarts at zero — a
// binary round trip and a JSON round trip of the same document produce
// MarshalJSON-identical results.

// BinaryDocTag is the version byte opening every binary document blob.
// Callers that carry "JSON or binary" blobs dispatch on the first byte:
// '{' means PROV-JSON, BinaryDocTag means this codec.
const BinaryDocTag = 0x01

// Value kind wire codes. These are the ValueKind constants today, but
// pinned separately: the wire format must not shift if ValueKind gains
// members or is reordered.
const (
	binKindString = 0
	binKindInt    = 1
	binKindFloat  = 2
	binKindBool   = 3
	binKindTime   = 4
	binKindRef    = 5
)

// binEncoder holds the per-document intern table. Pooled: the map is
// cleared, not reallocated, between documents.
type binEncoder struct {
	tab map[string]uint32
}

var binEncPool = sync.Pool{
	New: func() interface{} { return &binEncoder{tab: make(map[string]uint32, 64)} },
}

// AppendBinary appends the binary encoding of d to dst and returns the
// extended slice. Encoding cannot fail: every in-memory document is
// representable.
func AppendBinary(dst []byte, d *Document) []byte {
	e := binEncPool.Get().(*binEncoder)
	clear(e.tab)

	dst = append(dst, BinaryDocTag)

	prefixes := d.Namespaces.Prefixes()
	dst = binary.AppendUvarint(dst, uint64(len(prefixes)))
	for _, p := range prefixes {
		uri, _ := d.Namespaces.Lookup(p)
		dst = e.appendStr(dst, p)
		dst = e.appendStr(dst, uri)
	}

	dst = binary.AppendUvarint(dst, uint64(len(d.Entities)))
	for id, el := range d.Entities {
		dst = e.appendStr(dst, string(id))
		dst = e.appendAttrs(dst, el.Attrs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Activities)))
	for id, a := range d.Activities {
		dst = e.appendStr(dst, string(id))
		dst = e.appendAttrs(dst, a.Attrs)
		dst = appendTime(dst, a.StartTime)
		dst = appendTime(dst, a.EndTime)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Agents)))
	for id, el := range d.Agents {
		dst = e.appendStr(dst, string(id))
		dst = e.appendAttrs(dst, el.Attrs)
	}

	dst = binary.AppendUvarint(dst, uint64(len(d.Relations)))
	for _, r := range d.Relations {
		dst = e.appendStr(dst, r.ID)
		dst = e.appendStr(dst, string(r.Kind))
		dst = e.appendStr(dst, string(r.Subject))
		dst = e.appendStr(dst, string(r.Object))
		dst = appendTime(dst, r.Time)
		dst = e.appendAttrs(dst, r.Attrs)
	}

	binEncPool.Put(e)
	return dst
}

// MarshalBinary returns the binary encoding of d in a fresh buffer.
func (d *Document) MarshalBinary() ([]byte, error) {
	return AppendBinary(nil, d), nil
}

func (e *binEncoder) appendStr(dst []byte, s string) []byte {
	if idx, ok := e.tab[s]; ok {
		return binary.AppendUvarint(dst, uint64(idx))
	}
	e.tab[s] = uint32(len(e.tab)) + 1
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func (e *binEncoder) appendAttrs(dst []byte, attrs Attrs) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for k, v := range attrs {
		dst = e.appendStr(dst, k)
		dst = e.appendValue(dst, v)
	}
	return dst
}

func (e *binEncoder) appendValue(dst []byte, v Value) []byte {
	switch v.Kind() {
	case KindInt:
		dst = append(dst, binKindInt)
		return binary.AppendVarint(dst, v.int())
	case KindFloat:
		dst = append(dst, binKindFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.float()))
	case KindBool:
		dst = append(dst, binKindBool)
		if v.bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KindTime:
		dst = append(dst, binKindTime)
		return appendTime(dst, v.time())
	case KindRef:
		dst = append(dst, binKindRef)
		return e.appendStr(dst, v.s)
	default: // KindString and anything unknown (the zero Value is Str(""))
		dst = append(dst, binKindString)
		return e.appendStr(dst, v.s)
	}
}

func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// binReader walks a binary document, bounds-checking every read so
// corrupt or truncated input yields an error, never a panic.
type binReader struct {
	buf []byte
	pos int
	tab []string
	// views makes the strings of tab views of buf rather than copies,
	// for a walk none of whose strings outlives it (IndexBinary).
	views bool
}

var errBinTruncated = fmt.Errorf("prov: truncated binary document")

func (r *binReader) remaining() int { return len(r.buf) - r.pos }

func (r *binReader) uvarint() (uint64, error) {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 { // one byte: most tokens and counts
		r.pos++
		return uint64(r.buf[r.pos-1]), nil
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.pos += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errBinTruncated
	}
	r.pos += n
	return v, nil
}

func (r *binReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errBinTruncated
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// The fewest bytes one item of each collection encodes in: a string, a
// varint and a time take a byte at least, a value two (its kind byte,
// then a payload), so a count of more items than could fit in the bytes
// left is corrupt.
const (
	minNamespaceBytes = 2 // prefix, uri
	minElementBytes   = 2 // id, attribute count
	minActivityBytes  = 4 // id, attribute count, start, end
	minRelationBytes  = 6 // id, kind, subject, object, time, attribute count
	minAttrBytes      = 3 // key, value kind, payload
)

// count reads a collection length and bounds it by the bytes left over
// the smallest encoding of one item, minBytes: a count beyond that is
// corrupt — caught here, before it sizes an allocation.
func (r *binReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("prov: binary document count %d exceeds input", v)
	}
	return int(v), nil
}

func (r *binReader) str() (string, error) {
	tok, err := r.tok()
	if err != nil {
		return "", err
	}
	return r.tab[tok], nil
}

// tok reads a string reference and returns the string's index in the
// intern table, adding a new string to the table.
func (r *binReader) tok() (int32, error) {
	tok, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if tok != 0 {
		if tok > uint64(len(r.tab)) {
			return 0, fmt.Errorf("prov: binary document string ref %d out of range", tok)
		}
		return int32(tok - 1), nil
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, errBinTruncated
	}
	b := r.buf[r.pos : r.pos+int(n)]
	var s string
	if r.views && n > 0 {
		s = unsafe.String(&b[0], n)
	} else {
		s = string(b)
	}
	r.pos += int(n)
	r.tab = append(r.tab, s)
	return int32(len(r.tab) - 1), nil
}

func (r *binReader) time() (time.Time, error) {
	present, err := r.byte()
	if err != nil {
		return time.Time{}, err
	}
	switch present {
	case 0:
		return time.Time{}, nil
	case 1:
		sec, err := r.varint()
		if err != nil {
			return time.Time{}, err
		}
		ns, err := r.uvarint()
		if err != nil {
			return time.Time{}, err
		}
		if ns >= 1e9 {
			return time.Time{}, fmt.Errorf("prov: binary document nanoseconds %d out of range", ns)
		}
		return time.Unix(sec, int64(ns)).UTC(), nil
	default:
		return time.Time{}, fmt.Errorf("prov: bad time presence byte %d", present)
	}
}

func (r *binReader) attrs() (Attrs, error) {
	n, err := r.count(minAttrBytes)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		// Attribute-less elements keep nil Attrs: MarshalJSON renders nil
		// and empty identically, and Document's Add* merge paths are
		// nil-tolerant, so decode skips ~one map allocation per element.
		return nil, nil
	}
	a := make(Attrs, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		a[k] = v
	}
	return a, nil
}

func (r *binReader) value() (Value, error) {
	kind, err := r.byte()
	if err != nil {
		return Value{}, err
	}
	switch kind {
	case binKindString:
		s, err := r.str()
		return Str(s), err
	case binKindInt:
		i, err := r.varint()
		return Int(i), err
	case binKindFloat:
		if r.remaining() < 8 {
			return Value{}, errBinTruncated
		}
		bits := binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
		return Float(math.Float64frombits(bits)), nil
	case binKindBool:
		b, err := r.byte()
		if err != nil {
			return Value{}, err
		}
		if b > 1 {
			return Value{}, fmt.Errorf("prov: bad boolean byte %d", b)
		}
		return Bool(b == 1), nil
	case binKindTime:
		t, err := r.time()
		return Time(t), err
	case binKindRef:
		s, err := r.str()
		return Ref(QName(s)), err
	default:
		return Value{}, fmt.Errorf("prov: unknown value kind %d", kind)
	}
}

// ParseBinary decodes a binary document blob produced by AppendBinary.
// Elements are slab-allocated (one backing array per class, not one
// heap object per element) and strings come out of the intern table, so
// decode allocates per unique string, not per field.
func ParseBinary(data []byte) (*Document, error) {
	if len(data) == 0 || data[0] != BinaryDocTag {
		return nil, fmt.Errorf("prov: not a binary document")
	}
	r := &binReader{buf: data, pos: 1}

	d := &Document{Namespaces: NewNamespaceSet()}

	nNS, err := r.count(minNamespaceBytes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nNS; i++ {
		p, err := r.str()
		if err != nil {
			return nil, err
		}
		uri, err := r.str()
		if err != nil {
			return nil, err
		}
		d.Namespaces.Register(p, uri)
	}

	nEnt, err := r.count(minElementBytes)
	if err != nil {
		return nil, err
	}
	ents := make([]Element, nEnt)
	d.Entities = make(map[QName]*Element, nEnt)
	for i := 0; i < nEnt; i++ {
		id, err := r.str()
		if err != nil {
			return nil, err
		}
		attrs, err := r.attrs()
		if err != nil {
			return nil, err
		}
		ents[i] = Element{ID: QName(id), Attrs: attrs}
		d.Entities[QName(id)] = &ents[i]
	}

	nAct, err := r.count(minActivityBytes)
	if err != nil {
		return nil, err
	}
	acts := make([]Activity, nAct)
	d.Activities = make(map[QName]*Activity, nAct)
	for i := 0; i < nAct; i++ {
		id, err := r.str()
		if err != nil {
			return nil, err
		}
		attrs, err := r.attrs()
		if err != nil {
			return nil, err
		}
		start, err := r.time()
		if err != nil {
			return nil, err
		}
		end, err := r.time()
		if err != nil {
			return nil, err
		}
		acts[i] = Activity{Element: Element{ID: QName(id), Attrs: attrs}, StartTime: start, EndTime: end}
		d.Activities[QName(id)] = &acts[i]
	}

	nAg, err := r.count(minElementBytes)
	if err != nil {
		return nil, err
	}
	ags := make([]Element, nAg)
	d.Agents = make(map[QName]*Element, nAg)
	for i := 0; i < nAg; i++ {
		id, err := r.str()
		if err != nil {
			return nil, err
		}
		attrs, err := r.attrs()
		if err != nil {
			return nil, err
		}
		ags[i] = Element{ID: QName(id), Attrs: attrs}
		d.Agents[QName(id)] = &ags[i]
	}

	nRel, err := r.count(minRelationBytes)
	if err != nil {
		return nil, err
	}
	rels := make([]Relation, nRel)
	d.Relations = make([]*Relation, nRel)
	for i := 0; i < nRel; i++ {
		id, err := r.str()
		if err != nil {
			return nil, err
		}
		kind, err := r.str()
		if err != nil {
			return nil, err
		}
		subj, err := r.str()
		if err != nil {
			return nil, err
		}
		obj, err := r.str()
		if err != nil {
			return nil, err
		}
		t, err := r.time()
		if err != nil {
			return nil, err
		}
		attrs, err := r.attrs()
		if err != nil {
			return nil, err
		}
		rels[i] = Relation{ID: id, Kind: RelationKind(kind), Subject: QName(subj), Object: QName(obj), Time: t, Attrs: attrs}
		d.Relations[i] = &rels[i]
	}

	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("prov: %d trailing bytes after binary document", len(r.buf)-r.pos)
	}
	return d, nil
}
