package prov

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"
)

// fuzzSeedDocs builds a spread of documents covering every wire shape:
// all value kinds, attr-less elements, activity times, relation times,
// every relation kind, unicode ids, and empty documents.
func fuzzSeedDocs() []*Document {
	empty := NewDocument()

	kitchen := NewDocument()
	kitchen.Namespaces.Register("ex", "http://example.org/")
	kitchen.AddEntity("ex:e1", Attrs{
		"s": Str("hello"), "i": Int(-42), "f": Float(3.5),
		"b": Bool(true), "t": Time(time.Date(2025, 6, 1, 2, 3, 4, 5000, time.UTC)),
		"r": Ref("ex:other"),
	})
	kitchen.AddEntity("ex:e2", nil)
	act := kitchen.AddActivity("ex:a1", Attrs{"prov:type": Str("run")})
	act.StartTime = time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	act.EndTime = time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	kitchen.AddAgent("ex:u", Attrs{"provml:name": Str("üñí©ode")})
	kitchen.WasGeneratedBy("ex:e1", "ex:a1", time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC))
	kitchen.Used("ex:a1", "ex:e2", time.Time{})
	kitchen.WasAssociatedWith("ex:a1", "ex:u")
	kitchen.WasDerivedFrom("ex:e1", "ex:e2")

	rels := NewDocument()
	rels.AddEntity("ex:e", nil)
	rels.AddEntity("ex:e2", nil)
	rels.AddActivity("ex:a", nil)
	rels.AddActivity("ex:a2", nil)
	rels.AddAgent("ex:g", nil)
	rels.AddAgent("ex:g2", nil)
	for _, r := range []Relation{
		{Kind: RelUsed, Subject: "ex:a", Object: "ex:e"},
		{Kind: RelWasGeneratedBy, Subject: "ex:e", Object: "ex:a"},
		{Kind: RelWasAssociatedW, Subject: "ex:a", Object: "ex:g"},
		{Kind: RelWasAttributedTo, Subject: "ex:e", Object: "ex:g"},
		{Kind: RelWasDerivedFrom, Subject: "ex:e", Object: "ex:e2"},
		{Kind: RelWasInformedBy, Subject: "ex:a", Object: "ex:a2"},
		{Kind: RelActedOnBehalfOf, Subject: "ex:g", Object: "ex:g2"},
		{Kind: RelWasStartedBy, Subject: "ex:a", Object: "ex:e"},
		{Kind: RelWasEndedBy, Subject: "ex:a", Object: "ex:e"},
		{Kind: RelHadMember, Subject: "ex:e", Object: "ex:e2"},
		{Kind: RelSpecializationOf, Subject: "ex:e", Object: "ex:e2"},
		{Kind: RelAlternateOf, Subject: "ex:e", Object: "ex:e2"},
	} {
		rels.AddRelation(r)
	}

	return []*Document{empty, kitchen, rels}
}

// FuzzBinaryDocRoundTrip feeds PROV-JSON through the binary codec and
// demands byte-identical canonical JSON back: ParseJSON -> AppendBinary
// -> ParseBinary -> MarshalJSON must equal the direct MarshalJSON. The
// blob is canonical, so encoding the decoded document again must give
// it back byte for byte.
func FuzzBinaryDocRoundTrip(f *testing.F) {
	for _, d := range fuzzSeedDocs() {
		j, err := d.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(j)
	}
	f.Add(primerJSON(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseJSON(data)
		if err != nil {
			t.Skip() // not a valid document: nothing to round-trip
		}
		want, err := doc.MarshalJSON()
		if err != nil {
			t.Skip()
		}
		bin := AppendBinary(nil, doc)
		back, err := ParseBinary(bin)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\nencoding: %x", err, bin)
		}
		got, err := back.MarshalJSON()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round-trip mismatch:\n got %s\nwant %s", got, want)
		}
		if again := AppendBinary(nil, back); !bytes.Equal(again, bin) {
			t.Fatalf("a canonical blob re-encodes to other bytes:\n got %x\nwant %x", again, bin)
		}
	})
}

// binaryDecodeSeeds are FuzzBinaryDocDecode's seeds: the fuzz seed
// documents' encodings, then hostile shapes — wrong tag, truncations,
// absurd counts.
func binaryDecodeSeeds() [][]byte {
	var seeds [][]byte
	for _, d := range fuzzSeedDocs() {
		seeds = append(seeds, AppendBinary(nil, d))
	}
	seeds = append(seeds, []byte{}, []byte{BinaryDocTag}, []byte{0x02, 0x00}, []byte{BinaryDocTag, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	kitchen := AppendBinary(nil, fuzzSeedDocs()[1])
	for _, cut := range []int{1, 2, len(kitchen) / 2, len(kitchen) - 1} {
		if cut < len(kitchen) {
			seeds = append(seeds, kitchen[:cut])
		}
	}
	return seeds
}

// FuzzBinaryDocDecode throws arbitrary bytes at the decoder: it must
// never panic, and anything it does accept must re-encode and re-decode
// to the same canonical JSON (decode is a fixpoint, so corrupt input
// can never silently morph a document). ElementAttr must see in what it
// accepts exactly the attributes ParseBinary decodes (checkElementAttr).
func FuzzBinaryDocDecode(f *testing.F) {
	for _, s := range binaryDecodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseBinary(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		checkElementAttr(t, data, doc)
		j1, err := doc.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted document fails to marshal: %v", err)
		}
		again, err := ParseBinary(AppendBinary(nil, doc))
		if err != nil {
			t.Fatalf("re-decode of accepted document failed: %v", err)
		}
		j2, err := again.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("decode not a fixpoint:\n first %s\nsecond %s", j1, j2)
		}
	})
}

// checkElementAttr holds ElementAttr over data to doc, the document
// ParseBinary decodes from it: for every attribute key doc holds, and
// one it does not, ElementAttr visits every element of every class
// once, with the value its attribute map holds under the key.
func checkElementAttr(t *testing.T, data []byte, doc *Document) {
	t.Helper()
	keys := map[string]bool{"ex:none": true}
	type seen struct {
		class string
		id    QName
		v     Value
		ok    bool
	}
	var want []seen
	eachClass := func(fn func(class string, id QName, a Attrs)) {
		for id, el := range doc.Entities {
			fn("Entity", id, el.Attrs)
		}
		for id, a := range doc.Activities {
			fn("Activity", id, a.Attrs)
		}
		for id, el := range doc.Agents {
			fn("Agent", id, el.Attrs)
		}
	}
	eachClass(func(_ string, _ QName, a Attrs) {
		for k := range a {
			keys[k] = true
		}
	})
	order := func(a, b seen) int {
		return cmp.Or(strings.Compare(a.class, b.class), strings.Compare(string(a.id), string(b.id)))
	}
	for key := range keys {
		want = want[:0]
		eachClass(func(class string, id QName, a Attrs) {
			v, ok := a[key]
			want = append(want, seen{class, id, v, ok})
		})
		var got []seen
		err := ElementAttr(data, key, func(class string, id QName, v Value, ok bool) {
			got = append(got, seen{class, QName(strings.Clone(string(id))), v, ok})
		})
		if err != nil {
			t.Fatalf("ElementAttr refuses what ParseBinary accepts: %v", err)
		}
		slices.SortFunc(want, order)
		slices.SortFunc(got, order)
		if !slices.Equal(got, want) {
			t.Fatalf("ElementAttr(%q) sees %v, the decoded document holds %v", key, got, want)
		}
	}
}
