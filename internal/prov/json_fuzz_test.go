package prov

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// sameDocument is Equal and then everything Equal leaves out: the
// namespaces, each relation's id, attributes and position, and the
// counter the next generated relation id comes from.
func sameDocument(got, want *Document) error {
	if !got.Equal(want) {
		return fmt.Errorf("not Equal:\n got %s\nwant %s", got.ProvN(), want.ProvN())
	}
	gp, wp := got.Namespaces.Prefixes(), want.Namespaces.Prefixes()
	if len(gp) != len(wp) {
		return fmt.Errorf("prefixes %q, want %q", gp, wp)
	}
	for _, p := range wp {
		gu, ok := got.Namespaces.Lookup(p)
		wu, _ := want.Namespaces.Lookup(p)
		if !ok || gu != wu {
			return fmt.Errorf("prefix %q bound to %q (%v), want %q", p, gu, ok, wu)
		}
	}
	for i, w := range want.Relations {
		g := got.Relations[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.Subject != w.Subject || g.Object != w.Object ||
			!g.Time.Equal(w.Time) || !attrsEqual(g.Attrs, w.Attrs) {
			return fmt.Errorf("relation %d is %+v, want %+v", i, *g, *w)
		}
	}
	if got.relSeq != want.relSeq {
		return fmt.Errorf("relSeq %d, want %d", got.relSeq, want.relSeq)
	}
	return nil
}

// checkAgainstReference is the differential property: the decoder and
// the encoding/json reference accept the same inputs and build the same
// documents from them. The one intended divergence is a top-level null,
// which the reference reads as an empty document and the decoder
// rejects — it is not an object, and accepting it let the service
// journal a blob recovery cannot read.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := ParseJSON(data)
	want, werr := referenceParseJSON(data)
	if string(bytes.TrimSpace(data)) == "null" {
		if gerr == nil {
			t.Fatalf("top-level null accepted")
		}
		return
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("decoder error %v, reference error %v\ninput: %q", gerr, werr, data)
	}
	if gerr != nil {
		return
	}
	if err := sameDocument(got, want); err != nil {
		t.Fatalf("%v\ninput: %q", err, data)
	}
}

// jsonTraps are one input per place where reading the reference decoder
// showed behaviour a rewrite could plausibly get wrong.
var jsonTraps = []string{
	// A section repeated at top level: the last one replaces, it does
	// not merge — and an earlier faulty one is forgiven.
	`{"entity":{"ex:a":{"k":"1"}},"entity":{"ex:b":{}}}`,
	`{"entity":5,"entity":{"ex:b":{}}}`,
	`{"entity":{"ex:a":{"k":null}},"entity":{}}`,
	`{"prefix":{"a":"http://a/"},"prefix":{"b":"http://b/"}}`,
	`{"prefix":{"a":1},"prefix":null}`,
	`{"used":{"u":{}},"used":{"u":{"prov:activity":"ex:a","prov:entity":"ex:e"}}}`,
	// An element id repeated inside a section: last record wins whole,
	// but the dropped record still has to be valid.
	`{"entity":{"ex:a":{"k":"1","j":"2"},"ex:a":{"k":"3"}}}`,
	`{"entity":{"ex:a":{"k":[1]},"ex:a":{}}}`,
	`{"entity":{"ex:a":7,"ex:a":{}}}`,
	`{"used":{"u":{},"u":{"prov:activity":"ex:a","prov:entity":"ex:e"}}}`,
	`{"used":{"u":{"prov:activity":"ex:a","prov:entity":"ex:e"},"u":{}}}`,
	// An attribute key repeated in a record: last value wins.
	`{"entity":{"ex:a":{"k":"1","k":2}}}`,
	`{"activity":{"ex:a":{"prov:startTime":{"$":"2024-01-02T03:04:05Z","type":"xsd:dateTime"},"prov:startTime":"later"}}}`,
	`{"used":{"u":{"prov:activity":"ex:a","prov:activity":{"$":"ex:b","type":"prov:QUALIFIED_NAME"},"prov:entity":"ex:e"}}}`,
	// null where an object may stand reads as empty ...
	`{"entity":null,"prefix":null,"agent":null,"activity":null,"used":null}`,
	`{"entity":{"ex:a":null},"activity":{"ex:b":null},"agent":{"ex:c":null}}`,
	`{"prefix":{"ex":null}}`,
	`{"used":{"u":null}}`,
	// ... but not where an attribute value must, and neither does an array.
	`{"entity":{"ex:a":{"k":null}}}`,
	`{"entity":{"ex:a":{"k":[]}}}`,
	`{"entity":{"ex:a":{"k":["x",{"$":"1"}]}}}`,
	// Sections and records of the wrong type.
	`{"entity":[]}`, `{"entity":"x"}`, `{"entity":1}`, `{"entity":true}`,
	`{"prefix":[]}`, `{"prefix":{"ex":1}}`, `{"prefix":{"ex":{}}}`,
	`{"wasGeneratedBy":[{}]}`, `{"entity":{"ex:a":[]}}`, `{"entity":{"ex:a":"x"}}`,
	// Typed literals: a non-string "$" or "type" reads as "", "lang" and
	// other members are dropped, unknown types keep the string, the
	// last "$" wins, names match exactly.
	`{"entity":{"ex:a":{"k":{"$":{"q":[1]},"type":"xsd:string"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"7","type":5}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"bonjour","lang":"fr"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"x","type":"ex:mystery"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"1","$":"2","type":"xsd:int"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"1","$":null,"type":"xsd:string"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"1","Type":"xsd:int","TYPE":"xsd:int"}}}}`,
	`{"entity":{"ex:a":{"k":{}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"9","type":"xsd:long"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"x","type":"xsd:long"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"1e999","type":"xsd:double"}}}}`,
	`{"entity":{"ex:a":{"a":{"$":"NaN","type":"xsd:double"},"b":{"$":"-INF","type":"xsd:float"},"c":{"$":"+INF","type":"xsd:decimal"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"maybe","type":"xsd:boolean"}}}}`,
	`{"entity":{"ex:a":{"a":{"$":"T","type":"xsd:boolean"},"b":{"$":"2024-13-01T00:00:00Z","type":"xsd:dateTime"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"2024-01-02T03:04:05.123456789+02:00","type":"xsd:dateTime"}}}}`,
	`{"entity":{"ex:a":{"k":{"$":"ex:b","type":"xsd:QName"}}}}`,
	// Unknown sections are skipped but must be well-formed; names are
	// case-sensitive.
	`{"bundle":{"b":{"entity":{"ex:a":{"k":null}}}},"Entity":{"ex:a":[]},"ENTITY":7}`,
	`{"bundle":{"b":[1,}}`,
	`{"entity":{"ex:a":{}}}`,
	// Bare numbers.
	`{"entity":{"ex:a":{"a":-0,"b":0,"c":-0.0,"d":1e400,"e":9223372036854775807}}}`,
	`{"entity":{"ex:a":{"a":9223372036854775808,"b":-9223372036854775808,"c":-9223372036854775809}}}`,
	`{"entity":{"ex:a":{"a":1E2,"b":1e+2,"c":1e-2,"d":1.5,"e":0.1e1,"f":12345678901234567890123}}}`,
	`{"entity":{"ex:a":{"k":1e400}}}`, `{"entity":{"ex:a":{"k":-1e400}}}`, `{"entity":{"ex:a":{"k":1e-400}}}`,
	`{"entity":{"ex:a":{"k":01}}}`, `{"entity":{"ex:a":{"k":-}}}`, `{"entity":{"ex:a":{"k":1.}}}`,
	`{"entity":{"ex:a":{"k":.5}}}`, `{"entity":{"ex:a":{"k":+1}}}`, `{"entity":{"ex:a":{"k":1e}}}`,
	`{"entity":{"ex:a":{"k":0x10}}}`, `{"entity":{"ex:a":{"k":NaN}}}`,
	// Strings: escapes, surrogate pairs and lone surrogates, invalid
	// UTF-8 in keys and values, control characters.
	`{"entity":{"ex:a":{"k":"\"\\\/\b\f\n\r\té€"}}}`,
	`{"entity":{"ex:a":{"k":"😀","l":"\uD83D","m":"\ude00","n":"\ud83dx","o":"\ud83dA","p":"\udc00𐀀"}}}`,
	`{"entity":{"ex:\ud800":{"k\udfff":"v"}}}`,
	"{\"entity\":{\"ex:\xff\":{\"k\xc3\":\"v\xed\xa0\x80\"}}}",
	"{\"entity\":{\"ex:a\":{\"k\":\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"}}}",
	"{\"entity\":{\"ex:a\":{\"k\":\"a\x01b\"}}}",
	"{\"entity\":{\"ex:a\":{\"k\":\"a\tb\"}}}",
	"{\"entity\":{\"ex:a\x00\":{}}}",
	`{"entity":{"ex:a":{"k":"\x41"}}}`, `{"entity":{"ex:a":{"k":"\'"}}}`, `{"entity":{"ex:a":{"k":"\u12g4"}}}`,
	`{"entity":{"ex:a":{"k":"\u12"}}}`, `{"entity":{"ex:a":{"k":"unterminated}}}`, `{"entity":{"ex:a":{"k":"\`,
	`{"entity":{"ex:a":{"k":"1"},"ex:a":{"k":"2"}}}`,
	// Relations: an empty id gets a generated one, ids sort bytewise,
	// roles may be bare strings or any other value by its string form,
	// a missing role is an error, prov:time is lifted or dropped.
	`{"used":{"":{"prov:activity":"ex:a","prov:entity":"ex:e"},"b":{"prov:activity":"ex:a","prov:entity":"ex:e"}},"wasGeneratedBy":{"":{"prov:entity":"ex:e","prov:activity":"ex:a"}}}`,
	`{"used":{"b":{"prov:activity":"ex:a","prov:entity":"ex:e1"},"a":{"prov:activity":"ex:a","prov:entity":"ex:e2"},"B":{"prov:activity":"ex:a","prov:entity":"ex:e3"},"_:10":{"prov:activity":"ex:a","prov:entity":"ex:e4"},"_:9":{"prov:activity":"ex:a","prov:entity":"ex:e5"}}}`,
	`{"used":{"u":{"prov:activity":"ex:a"}}}`,
	`{"used":{"u":{"prov:entity":"ex:e"}}}`,
	`{"used":{"u":{"prov:activity":"","prov:entity":"ex:e"}}}`,
	`{"used":{"u":{"prov:activity":7,"prov:entity":true}}}`,
	`{"used":{"u":{"prov:activity":{"$":"2024-01-02T03:04:05Z","type":"xsd:dateTime"},"prov:entity":1.5}}}`,
	`{"used":{"u":{"prov:activity":"ex:a","prov:entity":"ex:e","prov:time":{"$":"2024-01-02T03:04:05Z","type":"xsd:dateTime"},"ex:role":"input"}}}`,
	`{"used":{"u":{"prov:activity":"ex:a","prov:entity":"ex:e","prov:time":"2024-01-02T03:04:05Z"}}}`,
	`{"wasStartedBy":{"s":{"prov:activity":"ex:a","prov:trigger":"ex:e"}},"wasEndedBy":{"s":{"prov:activity":"ex:a","prov:trigger":"ex:e"}},"alternateOf":{"x":{"prov:alternate1":"ex:e","prov:alternate2":"ex:f"}}}`,
	`{"wasDerivedFrom":{"d":{"prov:generatedEntity":"ex:e","prov:usedEntity":"ex:f","prov:entity":"ex:ignored"}}}`,
	// Activity times.
	`{"activity":{"ex:a":{"prov:startTime":{"$":"2024-01-02T03:04:05Z","type":"xsd:dateTime"},"prov:endTime":"2012-04-01T15:21:00","k":"v"}}}`,
	`{"activity":{"ex:a":{"prov:startTime":null}}}`,
	`{"activity":{"ex:a":{"prov:startTime":"later","prov:startTime":"2012-04-01T15:21:00","prov:endTime":7}}}`,
	`{"activity":{"ex:a":{"prov:startTime":"2012-04-01T15:21:00.25+02:00","prov:endTime":"2012-04-01"}}}`,
	`{"used":{"u":{"prov:activity":"ex:a","prov:entity":"ex:e","prov:time":"2024-01-02T03:04:05Z","prov:time":"soon"}}}`,
	// The same id in two classes stays two elements.
	`{"entity":{"ex:x":{"k":"e"}},"agent":{"ex:x":{"k":"g"}},"activity":{"ex:x":{"k":"a"}}}`,
	// Top-level values that are no object, whitespace, trailing bytes.
	`null`, ` null `, "\n\tnull\r\n", `nul`, `nullx`, `[]`, `"x"`, `1`, `true`, ``, ` `, `{`, `}`, `{}`, " \t\r\n{} \t\r\n",
	`{} x`, `{}{}`, `{},`, "{}\x00", "\xef\xbb\xbf{}", `{"entity":{}}}`, `{"entity":{},}`, `{,}`, `{"a"}`, `{"a":}`, `{"a" 1}`, `{a:1}`, `{'a':1}`,
	`{"entity":{"ex:a":{"k":tru}}}`, `{"entity":{"ex:a":{"k":True}}}`, `{"entity":{"ex:a":{"k":nul}}}`,
	"{\"entity\"\v:{}}", "{\"entity\":\f{}}",
}

// nested returns n arrays (or objects) inside one another under an
// unknown top-level member: encoding/json accepts 10000 levels of
// nesting counted from the document's own brace.
func nested(n int, object bool) []byte {
	open, shut := `[`, `]`
	if object {
		open, shut = `{"k":`, `}`
	}
	return []byte(`{"x":` + strings.Repeat(open, n) + `0` + strings.Repeat(shut, n) + `}`)
}

// FuzzParseJSONMatchesReference holds the single-pass decoder to the
// behaviour of the encoding/json decoder it replaced (the reference in
// json_reference_test.go). The corpus under testdata/fuzz adds three
// whole documents: a bench-shaped chain, a core.Run.BuildProv run and
// the W3C PROV-JSON primer example.
func FuzzParseJSONMatchesReference(f *testing.F) {
	for _, d := range fuzzSeedDocs() {
		j, err := d.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(j)
	}
	for _, s := range jsonTraps {
		f.Add([]byte(s))
	}
	for _, n := range []int{9998, 9999, 10000} {
		f.Add(nested(n, false))
		f.Add(nested(n, true))
	}
	f.Fuzz(checkAgainstReference)
}
