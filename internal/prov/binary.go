package prov

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
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
// Decoding goes through the records (docRecords) ParseJSON links too:
// times come back UTC, records without attributes keep nil Attrs, and
// the relation-id counter restarts at zero.

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

// A document's records (docRecords) are its namespace bindings, each
// class's elements and the relations, in the order the blob lists them,
// with each record's attributes a span of one flat slice: the one form
// every codec of this package goes through. They are read from a blob
// by the one reader of its layout, binReader.walk (recordWalk), from
// PROV-JSON by its one reader (decoder), and from a *Document by
// fromDocument; written by binEmitter as a blob and by jsonEmitter as
// PROV-JSON; made a *Document by link; and checked by the one
// validator, docRecords.validate, which Validate, EncodeDocument and
// TranscodeJSON call.

// recAttr is one attribute of a record.
type recAttr struct {
	key string
	val Value
}

// attrSpan is a record's attributes: docRecords.attrs[off:end].
type attrSpan struct{ off, end int }

// elemRec is one element: its id, its attributes and, for an activity,
// its times.
type elemRec struct {
	id         string
	attrs      attrSpan
	start, end time.Time
}

// relRec is one relation.
type relRec struct {
	id, subject, object string
	kind                RelationKind
	t                   time.Time
	attrs               attrSpan
}

// nsBinding binds a namespace prefix to its URI.
type nsBinding struct{ prefix, uri string }

// docRecords is a document as its blob lists it. In the canonical
// order AppendBinary writes, the bindings are sorted by prefix, each
// class's elements by id and each record's attributes by key, none of
// them repeated; the relations keep the document's order, which is by
// kind, then id, for a document decoded from PROV-JSON.
type docRecords struct {
	ns    []nsBinding
	elems [len(elementClasses)][]elemRec
	rels  []relRec
	attrs []recAttr
	ids   []QName // fromDocument's scratch
	// The sort scratch of putting records in canonical order, one per
	// kind of record (lastOfEach).
	nsSort   sortScratch[nsBinding]
	attrSort sortScratch[recAttr]
}

func (rs *docRecords) attrsOf(s attrSpan) []recAttr { return rs.attrs[s.off:s.end] }

// reset empties rs and drops every string it refers to.
func (rs *docRecords) reset() {
	rs.ns = clearSlice(rs.ns)
	for c := range rs.elems {
		rs.elems[c] = clearSlice(rs.elems[c])
	}
	rs.rels = clearSlice(rs.rels)
	rs.attrs = clearSlice(rs.attrs)
}

// clearSlice zeroes s and returns it empty.
func clearSlice[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// The strings canonical order sorts each kind of record by, and their
// comparisons.
func nsPrefix(b *nsBinding) string { return b.prefix }
func elemID(el *elemRec) string    { return el.id }
func relRecID(r *relRec) string    { return r.id }
func attrKey(a *recAttr) string    { return a.key }
func byPrefix(a, b nsBinding) int  { return strings.Compare(a.prefix, b.prefix) }
func byKey(a, b recAttr) int       { return strings.Compare(a.key, b.key) }

// fromDocument fills the empty rs with d's records in canonical order.
func (rs *docRecords) fromDocument(d *Document) {
	for p, uri := range d.Namespaces.byPrefix {
		rs.ns = append(rs.ns, nsBinding{p, uri})
	}
	slices.SortFunc(rs.ns, byPrefix)
	// Sorting the ids and looking each up moves 16-byte strings, where
	// sorting the records would move 80-byte ones.
	for _, id := range recordIDs(rs, d.Entities) {
		rs.elems[0] = append(rs.elems[0], elemRec{id: string(id), attrs: rs.addAttrs(d.Entities[id].Attrs)})
	}
	for _, id := range recordIDs(rs, d.Activities) {
		a := d.Activities[id]
		rs.elems[activityClass] = append(rs.elems[activityClass], elemRec{id: string(id), attrs: rs.addAttrs(a.Attrs), start: a.StartTime, end: a.EndTime})
	}
	for _, id := range recordIDs(rs, d.Agents) {
		rs.elems[2] = append(rs.elems[2], elemRec{id: string(id), attrs: rs.addAttrs(d.Agents[id].Attrs)})
	}
	rs.ids = clearSlice(rs.ids)
	for _, r := range d.Relations {
		rs.rels = append(rs.rels, relRec{id: r.ID, subject: string(r.Subject), object: string(r.Object), kind: r.Kind, t: r.Time, attrs: rs.addAttrs(r.Attrs)})
	}
}

// recordIDs returns the keys of m in order, in rs.ids.
func recordIDs[V any](rs *docRecords, m map[QName]V) []QName {
	rs.ids = rs.ids[:0]
	for id := range m {
		rs.ids = append(rs.ids, id)
	}
	slices.Sort(rs.ids)
	return rs.ids
}

// addAttrs appends an attribute bag to rs.attrs in key order.
func (rs *docRecords) addAttrs(a Attrs) attrSpan {
	s := attrSpan{off: len(rs.attrs)}
	for k, v := range a {
		rs.attrs = append(rs.attrs, recAttr{k, v})
	}
	s.end = len(rs.attrs)
	slices.SortFunc(rs.attrsOf(s), byKey)
	return s
}

// binEmitter writes the binary layout. Its intern table is open
// addressing over the strings written so far, sized by the document
// being written: begin clears the slots this document needs, whatever
// the largest document the emitter wrote before.
type binEmitter struct {
	// slots holds, where a string hashes, its token + 1; 0 is empty.
	slots []int32
	// strs is the intern table: token i stands for strs[i].
	strs []string
	// classes has bit c of token i set when strs[i] is the id of an
	// element of class c.
	classes []uint8
	// ends holds each relation's subject and object tokens, in the
	// order the relations are written.
	ends []int32
}

var internSeed = maphash.MakeSeed()

// begin readies e for a document of at most n string references.
func (e *binEmitter) begin(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(e.slots) < size {
		e.slots = make([]int32, size)
	} else {
		e.slots = e.slots[:size]
		clear(e.slots)
	}
	e.strs, e.classes, e.ends = clearSlice(e.strs), e.classes[:0], e.ends[:0]
}

// emit appends the blob of the records rs to dst.
func (e *binEmitter) emit(dst []byte, rs *docRecords) []byte {
	e.begin(2*len(rs.ns) + len(rs.elems[0]) + len(rs.elems[1]) + len(rs.elems[2]) + 4*len(rs.rels) + 2*len(rs.attrs))
	dst = append(dst, BinaryDocTag)
	dst = binary.AppendUvarint(dst, uint64(len(rs.ns)))
	for _, b := range rs.ns {
		dst, _ = e.str(dst, b.prefix)
		dst, _ = e.str(dst, b.uri)
	}
	for c, els := range rs.elems {
		dst = binary.AppendUvarint(dst, uint64(len(els)))
		for i := range els {
			el := &els[i]
			var tok int32
			dst, tok = e.str(dst, el.id)
			e.classes[tok] |= 1 << c
			dst = e.attrs(dst, rs.attrsOf(el.attrs))
			if c == activityClass {
				dst = appendTime(dst, el.start)
				dst = appendTime(dst, el.end)
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rs.rels)))
	for i := range rs.rels {
		r := &rs.rels[i]
		var subject, object int32
		dst, _ = e.str(dst, r.id)
		dst, _ = e.str(dst, string(r.kind))
		dst, subject = e.str(dst, r.subject)
		dst, object = e.str(dst, r.object)
		e.ends = append(e.ends, subject, object)
		dst = appendTime(dst, r.t)
		dst = e.attrs(dst, rs.attrsOf(r.attrs))
	}
	return dst
}

// str appends a reference to s — its token, or 0 and s itself the first
// time — and returns s's token.
func (e *binEmitter) str(dst []byte, s string) ([]byte, int32) {
	mask := uint64(len(e.slots) - 1)
	for i := maphash.String(internSeed, s) & mask; ; i = (i + 1) & mask {
		t := e.slots[i]
		if t == 0 {
			e.strs = append(e.strs, s)
			e.classes = append(e.classes, 0)
			e.slots[i] = int32(len(e.strs))
			dst = append(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			return append(dst, s...), int32(len(e.strs) - 1)
		}
		if e.strs[t-1] == s {
			return binary.AppendUvarint(dst, uint64(t)), t - 1
		}
	}
}

func (e *binEmitter) attrs(dst []byte, attrs []recAttr) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(attrs)))
	for _, a := range attrs {
		dst, _ = e.str(dst, a.key)
		dst = e.value(dst, a.val)
	}
	return dst
}

func (e *binEmitter) value(dst []byte, v Value) []byte {
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
		dst, _ = e.str(dst, v.s)
		return dst
	default: // KindString and anything unknown (the zero Value is Str(""))
		dst = append(dst, binKindString)
		dst, _ = e.str(dst, v.s)
		return dst
	}
}

// EncodeDocument appends the binary encoding of d to dst and checks d
// as it goes: blob is the extended slice, and invalid is the error
// Validate returns for d, if any. It is the library's TranscodeJSON:
// one pass from a *Document to its records, its blob and the one
// validator's verdict. The encoding is canonical: elements are written
// in id order within each class, attributes in key order and relations
// in the document's order, so equal documents with equally ordered
// relations encode to equal bytes.
func EncodeDocument(dst []byte, d *Document) (blob []byte, invalid error) {
	w := recordWalks.Get().(*recordWalk)
	defer w.release()
	blob = w.encode(dst, d)
	_, invalid = w.rs.validate(&w.bin, false)
	return blob, invalid
}

// AppendBinary is EncodeDocument without the check: every in-memory
// document has an encoding, valid or not.
func AppendBinary(dst []byte, d *Document) []byte {
	w := recordWalks.Get().(*recordWalk)
	defer w.release()
	return w.encode(dst, d)
}

// encode appends the blob of d to dst, leaving its records in w.rs and
// the emitter's notes on them in w.bin for the validator.
func (w *recordWalk) encode(dst []byte, d *Document) []byte {
	w.rs.fromDocument(d)
	return w.bin.emit(dst, &w.rs)
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
// corrupt or truncated input yields an error, never a panic. Its walk is
// the one reader of the layout AppendBinary writes.
type binReader struct {
	buf []byte
	pos int
	tab []string
	// attrs is the attribute list read last; the next one overwrites it.
	attrs []binAttr
	// views makes the strings of tab views of buf rather than copies,
	// for a walk none of whose strings outlives it (IndexBinary,
	// ElementAttr).
	views bool
}

var errBinTruncated = fmt.Errorf("prov: truncated binary document")

// reuse readies r, pooled and reading views, to walk blob; nil drops
// every view of the blob it walked last.
func (r *binReader) reuse(blob []byte) {
	clear(r.tab)
	clear(r.attrs[:cap(r.attrs)])
	*r = binReader{buf: blob, tab: r.tab[:0], attrs: r.attrs[:0], views: true}
}

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

// binAttr is one attribute as walk reads it: its key, an index in the
// intern table, and its value.
type binAttr struct {
	key int32
	val Value
}

// attr returns the value of the last attribute of attrs named key.
func (r *binReader) attr(attrs []binAttr, key string) (v Value, ok bool) {
	for _, a := range attrs {
		if r.tab[a.key] == key {
			v, ok = a.val, true
		}
	}
	return v, ok
}

// elementClasses names the element classes in the order the binary
// format lists them.
var elementClasses = [3]string{"Entity", "Activity", "Agent"}

const (
	activityClass = 1
	// relSection is the section walk reads after the element classes.
	relSection = len(elementClasses)
)

// binVisitor is what walk hands a document's items to, in the blob's
// order. A string is its index in the reader's intern table, and an
// attribute list is the reader's, valid until the next item.
type binVisitor interface {
	namespace(prefix, uri int32)
	// section opens the n items of element class sec, or of the
	// relations for relSection.
	section(sec, n int)
	// element is one element of class c; start and end are an
	// activity's times, zero for the other classes.
	element(c uint8, id int32, attrs []binAttr, start, end time.Time) error
	relation(id, kind, subject, object int32, t time.Time, attrs []binAttr) error
}

// walk reads the binary document r.buf holds and hands v its items. It
// is the one reader of the layout: the tag, the section order, the
// bound on every count, the fields of every item, and that nothing
// trails the document.
func (r *binReader) walk(v binVisitor) error {
	if len(r.buf) == 0 || r.buf[0] != BinaryDocTag {
		return fmt.Errorf("prov: not a binary document")
	}
	r.pos = 1
	n, err := r.count(minNamespaceBytes)
	if err != nil {
		return err
	}
	for range n {
		prefix, err := r.tok()
		if err != nil {
			return err
		}
		uri, err := r.tok()
		if err != nil {
			return err
		}
		v.namespace(prefix, uri)
	}
	for c := range uint8(len(elementClasses)) {
		minBytes := minElementBytes
		if c == activityClass {
			minBytes = minActivityBytes
		}
		if n, err = r.count(minBytes); err != nil {
			return err
		}
		v.section(int(c), n)
		for range n {
			if err := r.element(v, c); err != nil {
				return err
			}
		}
	}
	if n, err = r.count(minRelationBytes); err != nil {
		return err
	}
	v.section(relSection, n)
	for range n {
		if err := r.relation(v); err != nil {
			return err
		}
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("prov: %d trailing bytes after binary document", len(r.buf)-r.pos)
	}
	return nil
}

// element reads one element of class c: its id, its attributes and, for
// an activity, its times.
func (r *binReader) element(v binVisitor, c uint8) error {
	id, err := r.tok()
	if err != nil {
		return err
	}
	attrs, err := r.attrList()
	if err != nil {
		return err
	}
	var start, end time.Time
	if c == activityClass {
		if start, err = r.time(); err != nil {
			return err
		}
		if end, err = r.time(); err != nil {
			return err
		}
	}
	return v.element(c, id, attrs, start, end)
}

// relation reads one relation: its id, kind, subject, object, time and
// attributes.
func (r *binReader) relation(v binVisitor) error {
	var s [4]int32
	for i := range s {
		var err error
		if s[i], err = r.tok(); err != nil {
			return err
		}
	}
	t, err := r.time()
	if err != nil {
		return err
	}
	attrs, err := r.attrList()
	if err != nil {
		return err
	}
	return v.relation(s[0], s[1], s[2], s[3], t, attrs)
}

// attrList reads an attribute list into r.attrs.
func (r *binReader) attrList() ([]binAttr, error) {
	n, err := r.count(minAttrBytes)
	if err != nil {
		return nil, err
	}
	r.attrs = r.attrs[:0]
	for range n {
		k, err := r.tok()
		if err != nil {
			return nil, err
		}
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		r.attrs = append(r.attrs, binAttr{k, v})
	}
	return r.attrs, nil
}

// ParseBinary decodes a binary document blob produced by AppendBinary:
// it walks the blob into records and links them (docRecords.link). A
// repeated attribute key's last value counts; an id declared twice in
// one class, which AppendBinary never writes, is refused. The records
// grow by append as the walk reads items, so a blob declaring more than
// it holds sizes nothing past what it does hold.
func ParseBinary(data []byte) (*Document, error) {
	w := getRecordWalk(data, false)
	defer w.release()
	if err := w.walk(); err != nil {
		return nil, err
	}
	return w.rs.link(), nil
}

// recordWalk is the records visitor of walk: it appends the blob's
// items to rs in the blob's order. Its reader's strings are views of
// the blob for an emit and copies for a decode, whose document keeps
// them. A filtered walk keeps only the elements keep names and the
// relations both of whose endpoints it names. Pooled, with the two
// writers of records, for an encode or a validation of a *Document too.
type recordWalk struct {
	r        binReader
	rs       docRecords
	keep     []QName // sorted
	filtered bool
	bin      binEmitter
	js       jsonEmitter
	scratch  []byte // Validate's blob
}

var recordWalks = sync.Pool{New: func() any { return new(recordWalk) }}

// getRecordWalk returns a pooled walk over blob whose strings are views
// of it or copies.
func getRecordWalk(blob []byte, views bool) *recordWalk {
	w := recordWalks.Get().(*recordWalk)
	w.r.reuse(blob)
	w.r.views = views
	return w
}

// release empties w, dropping every string of the blob it read, and
// pools it.
func (w *recordWalk) release() {
	w.r.reuse(nil)
	w.rs.reset()
	w.bin.strs = clearSlice(w.bin.strs)
	w.keep, w.filtered = nil, false
	recordWalks.Put(w)
}

// walk reads the blob into w.rs and settles the records: the bindings
// are the default namespaces' and the blob's, sorted by prefix, a later
// binding of a prefix replacing an earlier one; each class's elements
// are sorted by id, an id declared twice refused; and each record's
// attributes are sorted by key, of a repeated key the last value kept.
// The relations keep the blob's order.
func (w *recordWalk) walk() error {
	rs := &w.rs
	rs.ns = append(rs.ns, defaultBindings...)
	if err := w.r.walk(w); err != nil {
		return err
	}
	rs.ns = lastOfEach(rs.ns, nsPrefix, &rs.nsSort)
	byID := func(a, b elemRec) int { return strings.Compare(a.id, b.id) }
	for c, els := range rs.elems {
		if !slices.IsSortedFunc(els, byID) {
			slices.SortFunc(els, byID)
		}
		for i := range els {
			if i > 0 && els[i].id == els[i-1].id {
				return fmt.Errorf("prov: binary document declares %s %s twice", elementClasses[c], els[i].id)
			}
			els[i].attrs = rs.resolve(els[i].attrs)
		}
	}
	for i := range rs.rels {
		rs.rels[i].attrs = rs.resolve(rs.rels[i].attrs)
	}
	return nil
}

// kept reports whether the walk keeps an item naming string s.
func (w *recordWalk) kept(s int32) bool {
	if !w.filtered {
		return true
	}
	_, ok := slices.BinarySearch(w.keep, QName(w.r.tab[s]))
	return ok
}

func (w *recordWalk) namespace(prefix, uri int32) {
	w.rs.ns = append(w.rs.ns, nsBinding{w.r.tab[prefix], w.r.tab[uri]})
}

func (w *recordWalk) section(sec, n int) {}

func (w *recordWalk) element(c uint8, id int32, attrs []binAttr, start, end time.Time) error {
	if w.kept(id) {
		w.rs.elems[c] = append(w.rs.elems[c], elemRec{id: w.r.tab[id], attrs: w.attrs(attrs), start: start, end: end})
	}
	return nil
}

func (w *recordWalk) relation(id, kind, subject, object int32, t time.Time, attrs []binAttr) error {
	if w.kept(subject) && w.kept(object) {
		tab := w.r.tab
		w.rs.rels = append(w.rs.rels, relRec{id: tab[id], kind: RelationKind(tab[kind]), subject: tab[subject], object: tab[object], t: t, attrs: w.attrs(attrs)})
	}
	return nil
}

// attrs appends an attribute list to w.rs.attrs.
func (w *recordWalk) attrs(list []binAttr) attrSpan {
	s := attrSpan{off: len(w.rs.attrs)}
	for _, a := range list {
		w.rs.attrs = append(w.rs.attrs, recAttr{w.r.tab[a.key], a.val})
	}
	s.end = len(w.rs.attrs)
	return s
}
