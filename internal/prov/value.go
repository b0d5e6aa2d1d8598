package prov

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/jsonscan"
)

// ValueKind discriminates the dynamic type held by a Value.
type ValueKind int

// Supported attribute value kinds.
const (
	KindString ValueKind = iota
	KindInt
	KindFloat
	KindBool
	KindTime
	KindRef // a QName reference to another identifiable element
)

// Value is a typed PROV attribute value. Values serialize to PROV-JSON
// either as bare JSON scalars (strings, numbers, booleans) or as
// {"$": "...", "type": "xsd:..."} objects when the type must be preserved
// (times, references, and non-finite floats).
//
// A Value is 32 bytes — every stored attribute is one, and an attribute
// bag pays for eight of them from its first entry — so the kinds share
// their storage: s holds a string or reference; n an integer, the bits
// of a float, a boolean as 0 or 1, or a timestamp's Unix seconds, whose
// nanoseconds sit beside the kind.
type Value struct {
	kind uint8 // a ValueKind
	nsec int32
	s    string
	n    uint64
}

// Str returns a string Value.
func Str(s string) Value { return Value{kind: uint8(KindString), s: s} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: uint8(KindInt), n: uint64(i)} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: uint8(KindFloat), n: math.Float64bits(f)} }

// Bool returns a boolean Value.
func Bool(b bool) Value {
	v := Value{kind: uint8(KindBool)}
	if b {
		v.n = 1
	}
	return v
}

// Time returns a timestamp Value (serialized as xsd:dateTime). The
// instant is kept, in UTC; the location is not.
func Time(t time.Time) Value {
	return Value{kind: uint8(KindTime), n: uint64(t.Unix()), nsec: int32(t.Nanosecond())}
}

// Ref returns a Value referencing another element by qualified name.
func Ref(q QName) Value { return Value{kind: uint8(KindRef), s: string(q)} }

// Kind returns the value's kind.
func (v Value) Kind() ValueKind { return ValueKind(v.kind) }

// The payload of each kind, read without checking that it is the kind.
func (v Value) int() int64      { return int64(v.n) }
func (v Value) float() float64  { return math.Float64frombits(v.n) }
func (v Value) bool() bool      { return v.n != 0 }
func (v Value) time() time.Time { return time.Unix(int64(v.n), int64(v.nsec)).UTC() }

// AsString returns the value rendered as a string, whatever its kind.
func (v Value) AsString() string {
	switch v.Kind() {
	case KindString, KindRef:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.bool())
	case KindTime:
		return v.time().Format(time.RFC3339Nano)
	}
	return ""
}

// StringForm returns what a string search operand is compared with,
// and whether the value has it: a string or reference as it is, a time
// in RFC 3339 with nanoseconds; a number or a boolean has none.
func (v Value) StringForm() (string, bool) {
	switch v.Kind() {
	case KindInt, KindFloat, KindBool:
		return "", false
	}
	return v.AsString(), true
}

// AsInt returns the integer held by the value; float values are truncated.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind() {
	case KindInt:
		return v.int(), true
	case KindFloat:
		return int64(v.float()), true
	}
	return 0, false
}

// AsFloat returns the numeric content of the value.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind() {
	case KindFloat:
		return v.float(), true
	case KindInt:
		return float64(v.int()), true
	}
	return 0, false
}

// AsBool returns the boolean held by the value.
func (v Value) AsBool() (bool, bool) {
	if v.Kind() == KindBool {
		return v.bool(), true
	}
	return false, false
}

// AsTime returns the timestamp held by the value, in UTC.
func (v Value) AsTime() (time.Time, bool) {
	if v.Kind() == KindTime {
		return v.time(), true
	}
	return time.Time{}, false
}

// AsRef returns the QName reference held by the value.
func (v Value) AsRef() (QName, bool) {
	if v.Kind() == KindRef {
		return QName(v.s), true
	}
	return "", false
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.Kind() {
	case KindString, KindRef:
		return v.s == o.s
	case KindFloat:
		a, b := v.float(), o.float()
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	case KindInt, KindBool:
		return v.n == o.n
	case KindTime:
		return v.n == o.n && v.nsec == o.nsec
	}
	return false
}

func formatSpecialFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	default:
		return "-INF"
	}
}

func parseSpecialFloat(s string) (float64, bool) {
	switch s {
	case "NaN":
		return math.NaN(), true
	case "INF", "+INF":
		return math.Inf(1), true
	case "-INF":
		return math.Inf(-1), true
	}
	return 0, false
}

// stringArena copies the strings a decoded document keeps — ids,
// attribute names, string values — out of the input, many to a chunk:
// the document then holds a few chunks of nothing but string data, not
// one allocation per string and not the input, most of which is
// punctuation, role names and type tags it has no use for. Chunks are
// append-only, so the strings cut from them never change. A viewing
// arena copies nothing: its strings are views of the bytes it is
// handed, for a decode none of whose strings outlives the input
// (TranscodeJSON).
type stringArena struct {
	// chunk is the size of a fresh chunk. A string of more than a quarter
	// of it is allocated on its own — with the zero arena, every string.
	chunk int
	buf   strings.Builder
	view  bool
}

func (a *stringArena) keep(p []byte) string {
	if a.view {
		return unsafe.String(unsafe.SliceData(p), len(p))
	}
	if len(p) > a.chunk/4 {
		return string(p)
	}
	if a.buf.Cap()-a.buf.Len() < len(p) {
		a.buf = strings.Builder{}
		a.buf.Grow(a.chunk)
	}
	start := a.buf.Len()
	a.buf.Write(p)
	return a.buf.String()[start:]
}

// scanValue consumes one attribute value; the strings of the returned
// Value come from strs. err is a syntax error and ends the scan; bad
// reports a well-formed value that is no attribute value — null, an
// array, a number out of range, a typed literal whose "$" does not
// parse as its "type" — after consuming it, so the caller can carry on
// validating what follows.
//
// A bare string, boolean or number stands for itself: a number with
// neither fraction nor exponent that fits an int64 is an integer, any
// other a float64. An object is a typed literal: of its members only
// "$" and "type" are read, the last occurrence of each, and either
// reads as "" unless it is a string; "lang" and anything else is
// dropped. An unknown "type" keeps "$" as a string.
func scanValue(sc *jsonscan.Scanner, strs *stringArena) (v Value, bad, err error) {
	switch c := sc.Peek(); c {
	case '"':
		t, err := sc.String()
		if err != nil {
			return v, nil, err
		}
		return Str(strs.keep(sc.Bytes(t))), nil, nil
	case 't':
		return Bool(true), nil, sc.Literal("true")
	case 'f':
		return Bool(false), nil, sc.Literal("false")
	case 'n':
		return v, errors.New("prov: unsupported attribute value null"), sc.Literal("null")
	case '[':
		return v, errors.New("prov: unsupported attribute value: array"), sc.Skip()
	case '{':
		var dollar, typ []byte
		if err := sc.OpenObject(); err != nil {
			return v, nil, err
		}
		for {
			key, ok, err := sc.NextKey()
			if err != nil {
				return v, nil, err
			}
			if !ok {
				break
			}
			var field *[]byte
			switch string(sc.Bytes(key)) {
			case "$":
				field = &dollar
			case "type":
				field = &typ
			}
			if field == nil || sc.Peek() != '"' {
				if field != nil {
					*field = nil
				}
				if err := sc.Skip(); err != nil {
					return v, nil, err
				}
				continue
			}
			t, err := sc.String()
			if err != nil {
				return v, nil, err
			}
			*field = sc.Bytes(t)
		}
		v, bad = typedLiteral(dollar, typ, strs)
		return v, bad, nil
	default:
		if c != '-' && (c < '0' || c > '9') {
			// No value starts here: Skip reports it as any value's
			// scanner would, not as a malformed number.
			return v, nil, sc.Skip()
		}
		num, integer, err := sc.Number()
		if err != nil {
			return v, nil, err
		}
		if integer {
			if i, err := strconv.ParseInt(string(num), 10, 64); err == nil {
				return Int(i), nil, nil
			}
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return v, fmt.Errorf("prov: bad number %q: %v", num, err), nil
		}
		return Float(f), nil, nil
	}
}

// typedLiteral reads "$" as the XSD or PROV type named by "type".
func typedLiteral(dollar, typ []byte, strs *stringArena) (Value, error) {
	switch string(typ) {
	case "xsd:long", "xsd:int", "xsd:integer", "xsd:short", "xsd:byte":
		i, err := strconv.ParseInt(string(dollar), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("prov: bad %s %q: %v", typ, dollar, err)
		}
		return Int(i), nil
	case "xsd:double", "xsd:float", "xsd:decimal":
		if f, ok := parseSpecialFloat(string(dollar)); ok {
			return Float(f), nil
		}
		f, err := strconv.ParseFloat(string(dollar), 64)
		if err != nil {
			return Value{}, fmt.Errorf("prov: bad %s %q: %v", typ, dollar, err)
		}
		return Float(f), nil
	case "xsd:boolean":
		b, err := strconv.ParseBool(string(dollar))
		if err != nil {
			return Value{}, fmt.Errorf("prov: bad xsd:boolean %q: %v", dollar, err)
		}
		return Bool(b), nil
	case "xsd:dateTime":
		t, err := time.Parse(time.RFC3339Nano, string(dollar))
		if err != nil {
			return Value{}, fmt.Errorf("prov: bad xsd:dateTime %q: %v", dollar, err)
		}
		return Time(t), nil
	case "prov:QUALIFIED_NAME", "xsd:QName":
		return Ref(QName(strs.keep(dollar))), nil
	}
	// No type, xsd:string, or a type unknown here: keep the literal as a
	// string so round-trips do not lose data.
	return Str(strs.keep(dollar)), nil
}
