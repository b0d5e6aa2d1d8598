package prov

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkEmit holds jsonEmitter to the oracle encoder on data: a binary
// document when it opens with BinaryDocTag, PROV-JSON otherwise. Of a
// PROV-JSON document ParseJSON accepts, MarshalJSON and MarshalIndent
// write the oracle's bytes, and its blob passes checkEmitBlob.
func checkEmit(t *testing.T, data []byte) {
	t.Helper()
	if len(data) > 0 && data[0] == BinaryDocTag {
		checkEmitBlob(t, data)
		return
	}
	doc, err := ParseJSON(data)
	if err != nil {
		return
	}
	checkEmitDocument(t, doc)
	checkEmitBlob(t, AppendBinary(nil, doc))
}

// checkEmitDocument holds MarshalJSON and MarshalIndent on d to the
// oracle, byte for byte; what MarshalJSON writes is compact JSON, as
// json.Marshal, which compacts a marshaler's output, leaves it.
func checkEmitDocument(t *testing.T, d *Document) {
	t.Helper()
	for _, form := range []struct {
		name      string
		got, want func(*Document) ([]byte, error)
	}{
		{"MarshalJSON", (*Document).MarshalJSON, oracleMarshalJSON},
		{"MarshalIndent", (*Document).MarshalIndent, oracleMarshalIndent},
	} {
		got, err := form.got(d)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		want, err := form.want(d)
		if err != nil {
			t.Fatalf("oracle %s: %v", form.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s writes\n%s\nthe oracle\n%s", form.name, got, want)
		}
	}
	compact, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if raw, _ := d.MarshalJSON(); !bytes.Equal(compact, raw) {
		t.Fatalf("json.Marshal writes\n%s\nMarshalJSON\n%s", compact, raw)
	}
}

// checkEmitBlob holds the blob paths to the oracle on a blob ParseBinary
// accepts: the decoded document passes checkEmitDocument, DocumentJSON
// writes what the oracle's MarshalIndent writes for it, and SubgraphJSON
// what it writes for the oracle Subgraph of the same nodes — around a
// few start nodes within 0, 1 and 2 hops, all of them, and none. What
// ParseBinary refuses, DocumentJSON refuses.
func checkEmitBlob(t *testing.T, blob []byte) {
	t.Helper()
	doc, err := ParseBinary(blob)
	if err != nil {
		if _, jerr := DocumentJSON(blob); jerr == nil {
			t.Fatalf("DocumentJSON accepts what ParseBinary refuses: %v", err)
		}
		return
	}
	checkEmitDocument(t, doc)
	got, err := DocumentJSON(blob)
	if err != nil {
		t.Fatalf("DocumentJSON refuses what ParseBinary accepts: %v", err)
	}
	if want, _ := oracleMarshalIndent(doc); !bytes.Equal(got, want) {
		t.Fatalf("DocumentJSON writes\n%s\nMarshalIndent of the decoded document\n%s", got, want)
	}

	ix := NewIndex(doc)
	var all []QName
	for id := range int32(ix.Len()) {
		all = append(all, ix.Name(id))
	}
	sets := [][]QName{nil, all}
	for _, i := range []int{0, len(all) / 2, len(all) - 1} {
		if len(all) == 0 {
			break
		}
		for hops := range 3 {
			reach, _ := ix.Reach(all[i], Undirected, hops)
			if hops == 0 {
				reach = nil
			}
			sets = append(sets, append(reach, all[i]))
		}
	}
	for _, nodes := range sets {
		want, _ := oracleMarshalIndent(doc.Subgraph(nodes))
		got, err := SubgraphJSON(blob, slices.Clone(nodes))
		if err != nil {
			t.Fatalf("SubgraphJSON(%q) refuses what ParseBinary accepts: %v", nodes, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("SubgraphJSON(%q) writes\n%s\nthe oracle Subgraph\n%s", nodes, got, want)
		}
	}
}

// corpus returns the inputs committed under testdata/fuzz for fuzzer.
func corpus(tb testing.TB, fuzzer string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzer, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "[]byte(")
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(text))
	}
	return out
}

// emitTrapDocs are documents a PROV-JSON input cannot make, each at one
// place where the old encoder's maps decided what the bytes are.
func emitTrapDocs() []*Document {
	at := func(sec, nsec int) time.Time { return time.Unix(int64(sec), int64(nsec)).UTC() }

	// Lifted fields replace attributes of the same key, and a relation
	// of a kind outside AllRelationKinds is not written.
	lifted := NewDocument()
	lifted.AddEntity("ex:e", Attrs{"prov:type": Str("x")})
	a := lifted.AddActivity("ex:a", Attrs{"prov:startTime": Str("later"), "prov:endTime": Int(3), "a": Bool(false), "z": Float(math.NaN())})
	a.StartTime, a.EndTime = at(5, 123456789), at(9, 0)
	lifted.AddActivity("ex:b", Attrs{"prov:startTime": Int(1)})
	lifted.AddRelation(Relation{Kind: RelUsed, Subject: "ex:a", Object: "ex:e", Time: at(7, 5),
		Attrs: Attrs{"prov:activity": Str("ex:zzz"), "prov:entity": Int(2), "prov:time": Str("t"), "prov:role": Str("in")}})
	lifted.AddRelation(Relation{Kind: RelUsed, Subject: "ex:b", Object: "ex:e", Attrs: Attrs{"prov:time": Str("kept")}})
	lifted.AddRelation(Relation{Kind: "ex:custom", Subject: "ex:a", Object: "ex:e"})
	lifted.AddRelation(Relation{ID: "_:x", Kind: RelWasDerivedFrom, Subject: "ex:e", Object: "ex:e", Time: time.Unix(-62135596800, 0).UTC()})

	// A repeated relation id within a kind: the last one is written.
	repeated := NewDocument()
	repeated.AddEntity("ex:e", nil)
	repeated.AddActivity("ex:a", nil)
	for i, id := range []string{"r2", "r1", "r2", "r1", "r0"} {
		repeated.AddRelation(Relation{ID: id, Kind: RelUsed, Subject: "ex:a", Object: "ex:e", Attrs: Attrs{"n": Int(int64(i))}})
	}
	repeated.AddRelation(Relation{ID: "r1", Kind: RelWasGeneratedBy, Subject: "ex:e", Object: "ex:a"})

	// Twelve relations of one kind: a subgraph renumbers them _:u1 to
	// _:u12, written _:u1, _:u10, _:u11, _:u12, _:u2, ...; a namespace
	// outside the defaults is kept.
	chain := NewDocument()
	chain.Namespaces.Register("z", "http://z/")
	chain.Namespaces.Register("ex", "http://example.org/other#")
	for i := range 13 {
		chain.AddEntity(QName(fmt.Sprintf("ex:e%02d", i)), nil)
		chain.AddActivity(QName(fmt.Sprintf("ex:a%02d", i)), nil)
	}
	for i := 12; i > 0; i-- {
		chain.Used(QName(fmt.Sprintf("ex:a%02d", i)), QName(fmt.Sprintf("ex:e%02d", i-1)), time.Time{})
		chain.WasGeneratedBy(QName(fmt.Sprintf("ex:e%02d", i)), QName(fmt.Sprintf("ex:a%02d", i)), at(i, i))
	}

	// Strings encoding/json escapes, in every place a string is written.
	escapes := NewDocument()
	odd := "<a&b>\"\\/\b\f\n\r\t\x00\x1f\x7f é \u2028 \u2029 \xff\xc3 \xed\xa0\x80 \ufffd \U0001F600"
	escapes.Namespaces.Register(odd, odd)
	escapes.AddEntity(QName("ex:"+odd), Attrs{odd: Str(odd), "r": Ref(QName(odd)), "t": Time(at(-1, 999999999)),
		"f": Float(math.Inf(1)), "g": Float(math.Inf(-1)), "h": Float(-0.0), "i": Float(1e21), "j": Float(1e-7), "k": Int(math.MinInt64)})
	escapes.AddAgent("ex:g", Attrs{"": Str("")})
	escapes.AddRelation(Relation{ID: odd, Kind: RelWasAttributedTo, Subject: QName("ex:" + odd), Object: "ex:g"})

	// A namespace set without the defaults: MarshalJSON writes the
	// document's bindings only, and its blob decodes with the defaults
	// added, a blob binding replacing a default one.
	bare := &Document{Namespaces: &NamespaceSet{byPrefix: map[string]string{"a": "http://a/", "prov": "http://not-prov/"}},
		Entities: map[QName]*Element{"a:e": {ID: "a:e"}}}

	// Every section.
	return append([]*Document{lifted, repeated, chain, escapes, bare}, fuzzSeedDocs()...)
}

// FuzzJSONEmitMatchesReference holds jsonEmitter to the encoder it
// replaced (json_oracle_test.go): MarshalJSON and MarshalIndent on every
// document ParseJSON accepts, and on every blob ParseBinary accepts also
// DocumentJSON and SubgraphJSON, the document GET and subgraph bodies
// (checkEmit). Its seeds are the corpora of FuzzParseJSONMatchesReference
// and FuzzBinaryDocDecode and the blobs of emitTrapDocs.
func FuzzJSONEmitMatchesReference(f *testing.F) {
	for _, s := range jsonTraps {
		f.Add([]byte(s))
	}
	for _, fuzzer := range []string{"FuzzParseJSONMatchesReference", "FuzzBinaryDocDecode"} {
		for _, s := range corpus(f, fuzzer) {
			f.Add(s)
		}
	}
	for _, s := range binaryDecodeSeeds() {
		f.Add(s)
	}
	for _, d := range emitTrapDocs() {
		f.Add(AppendBinary(nil, d))
		j, err := oracleMarshalJSON(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(j)
	}
	f.Fuzz(checkEmit)
}

// BenchmarkEmitJSON writes a chain document of the benchmark corpus's
// three depths as indented PROV-JSON three ways: MarshalIndent of the
// decoded document, DocumentJSON of its blob (a document GET), and the
// oracle encoder over ParseBinary (what a GET ran before).
func BenchmarkEmitJSON(b *testing.B) {
	for _, depth := range []int{12, 64, 256} {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			b.Fatal(err)
		}
		blob := AppendBinary(nil, d)
		for _, c := range []struct {
			name string
			fn   func() ([]byte, error)
		}{
			{"MarshalIndent", d.MarshalIndent},
			{"DocumentJSON", func() ([]byte, error) { return DocumentJSON(blob) }},
			{"oracle", func() ([]byte, error) {
				doc, err := ParseBinary(blob)
				if err != nil {
					return nil, err
				}
				return oracleMarshalIndent(doc)
			}},
		} {
			b.Run(fmt.Sprintf("%s/depth=%d", c.name, depth), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, err := c.fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBlobDecodesWithDefaultNamespaces: a blob decodes, and is written
// as PROV-JSON, under the default namespaces and its own bindings, one
// of its own replacing a default one.
func TestBlobDecodesWithDefaultNamespaces(t *testing.T) {
	bare := &Document{Namespaces: &NamespaceSet{byPrefix: map[string]string{"a": "http://a/", "prov": "http://not-prov/"}}}
	blob := AppendBinary(nil, bare)
	doc, err := ParseBinary(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "http://a/", "prov": "http://not-prov/", "xsd": NSXSD, "provml": NSProvML, "yprov": NSYProv, "ex": NSDefault}
	if got := doc.Namespaces.byPrefix; !maps.Equal(got, want) {
		t.Fatalf("namespaces %v, want %v", got, want)
	}
	raw, err := DocumentJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ParseJSON(raw); err != nil || !maps.Equal(back.Namespaces.byPrefix, want) {
		t.Fatalf("DocumentJSON writes namespaces %s (%v), want %v", raw, err, want)
	}
}
