package provstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/prov"
)

// appendMatchesDecoded is attribute search over the decoded document,
// as FindByAttr answered before it walked the blob: the oracle of
// TestFindByAttrMatchesDecode.
func (e *entry) appendMatchesDecoded(out []SearchResult, key string, want interface{}) []SearchResult {
	eachElement(e.document(), func(class string, el *prov.Element) {
		v, ok := el.Attrs[key]
		switch {
		case ok:
		case key == "qname":
			v = prov.Str(string(el.ID))
		case key == "doc":
			v = prov.Str(e.id)
		default:
			return
		}
		if attrMatches(v, want) {
			out = append(out, SearchResult{Doc: e.id, Node: el.ID, Class: class})
		}
	})
	return out
}

// eachElement calls fn for every element of doc with its class name.
func eachElement(doc *prov.Document, fn func(class string, el *prov.Element)) {
	for _, el := range doc.Entities {
		fn("Entity", el)
	}
	for _, a := range doc.Activities {
		fn("Activity", &a.Element)
	}
	for _, el := range doc.Agents {
		fn("Agent", el)
	}
}

// findByAttrDecoded is FindByAttr answered by the oracle.
func findByAttrDecoded(s *Store, key string, want interface{}) []SearchResult {
	var out []SearchResult
	s.eachEntry(func(e *entry) { out = e.appendMatchesDecoded(out, key, want) })
	slices.SortFunc(out, compareResults)
	return out
}

// blobWriter writes a document blob by hand, for shapes AppendBinary
// never writes: str adds a new string to the table, ref names the
// tok-th one (from 1).
type blobWriter []byte

func (b blobWriter) uv(v uint64) blobWriter { return binary.AppendUvarint(b, v) }
func (b blobWriter) str(s string) blobWriter {
	return append(b.uv(0).uv(uint64(len(s))), s...)
}
func (b blobWriter) ref(tok int) blobWriter { return b.uv(uint64(tok)) }
func (b blobWriter) strVal() blobWriter     { return append(b, 0) } // kind string: a str or ref follows
func (b blobWriter) intVal(i int64) blobWriter {
	return binary.AppendVarint(append(b, 1), i)
}

// repeatedKeyBlob is a document whose attribute lists repeat a key and
// carry real "qname" and "doc" attributes:
//
//	entity ex:e {ex:k "first", ex:k 7, qname "other"}
//	entity ex:f {ex:k 7, ex:k "first"}
//	agent  ex:e {doc "other", doc "mine"}
func repeatedKeyBlob() []byte {
	// Strings: 1 ex:e, 2 ex:k, 3 first, 4 qname, 5 other, 6 ex:f, 7 doc, 8 mine.
	b := blobWriter{0x01}.uv(0).uv(2)
	b = b.str("ex:e").uv(3).str("ex:k").strVal().str("first").ref(2).intVal(7).str("qname").strVal().str("other")
	b = b.str("ex:f").uv(2).ref(2).intVal(7).ref(2).strVal().ref(3)
	b = b.uv(0).uv(1)
	b = b.ref(1).uv(2).str("doc").strVal().ref(5).ref(7).strVal().str("mine")
	return b.uv(0)
}

// randomAttrDoc is a document whose elements carry attributes of every
// value kind from small pools, so that searches hit; some ids are
// declared in two classes, and some elements have real "qname" and
// "doc" attributes.
func randomAttrDoc(rng *rand.Rand, pool []prov.Value) *prov.Document {
	d := prov.NewDocument()
	keys := []string{"ex:k", "ex:j", "prov:type", "qname", "doc"}
	attrs := func() prov.Attrs {
		a := prov.Attrs{}
		for range rng.Intn(4) {
			a[keys[rng.Intn(len(keys))]] = pool[rng.Intn(len(pool))]
		}
		return a
	}
	for i := range 2 + rng.Intn(6) {
		q := prov.QName(fmt.Sprintf("ex:n%d", i))
		switch rng.Intn(4) {
		case 0:
			d.AddEntity(q, attrs())
		case 1:
			d.AddActivity(q, attrs())
		case 2:
			d.AddAgent(q, attrs())
		default:
			d.AddEntity(q, attrs())
			d.AddActivity(q, attrs())
		}
	}
	return d
}

// TestFindByAttrMatchesDecode holds FindByAttr, which walks each blob
// in place, to the search over decoded documents it replaced: random
// documents with attribute values of every kind, ids in two classes,
// real "qname" and "doc" attributes that shadow the synthetic keys, and
// hand-written blobs that repeat a key, where the last value counts;
// every key against operands of every type, on 1 and 8 shards.
func TestFindByAttrMatchesDecode(t *testing.T) {
	when := time.Date(2026, 3, 1, 9, 0, 0, 5, time.UTC)
	pool := []prov.Value{
		prov.Str("a"), prov.Str("7"), prov.Str("ex:n1"), prov.Str("doc-01"), prov.Str(""),
		prov.Int(7), prov.Int(-1), prov.Float(0.25), prov.Float(7), prov.Bool(true), prov.Bool(false),
		prov.Time(when), prov.Ref("ex:n1"), prov.Ref("a"),
	}
	wants := []interface{}{
		"a", "7", "ex:n1", "ex:n0", "doc-01", "rk", "", "first", "other", "mine", when.Format(time.RFC3339Nano), "true",
		int64(7), 7, int64(-1), 0.25, 7.0, true, false, uint8(7), nil,
	}
	keys := []string{"ex:k", "ex:j", "prov:type", "qname", "doc", "ex:none"}
	for _, shards := range []int{1, 8} {
		rng := rand.New(rand.NewSource(39))
		s := NewSharded(shards)
		for i := range 40 {
			if err := s.Put(fmt.Sprintf("doc-%02d", i), randomAttrDoc(rng, pool)); err != nil {
				t.Fatal(err)
			}
		}
		e, err := newEntry("rk", repeatedKeyBlob())
		if err != nil {
			t.Fatal(err)
		}
		sh := s.shardFor("rk")
		sh.mu.Lock()
		sh.swap("rk", e)
		sh.mu.Unlock()

		hits := 0
		for _, key := range keys {
			for _, want := range wants {
				got, oracle := s.FindByAttr(key, want), findByAttrDecoded(s, key, want)
				if !slices.Equal(got, oracle) {
					t.Fatalf("shards=%d: FindByAttr(%q, %#v) = %v, the decoded documents say %v", shards, key, want, got, oracle)
				}
				hits += len(got)
			}
		}
		if hits < 100 {
			t.Fatalf("shards=%d: only %d hits over every search: the fixture matches too little", shards, hits)
		}
		for _, tc := range []struct {
			key  string
			want interface{}
			hits []SearchResult
		}{
			{"ex:k", int64(7), []SearchResult{{"rk", "ex:e", "Entity"}}},
			{"ex:k", "first", []SearchResult{{"rk", "ex:f", "Entity"}}},
			{"qname", "other", []SearchResult{{"rk", "ex:e", "Entity"}}},
			{"qname", "ex:e", []SearchResult{{"rk", "ex:e", "Agent"}}},
			{"doc", "mine", []SearchResult{{"rk", "ex:e", "Agent"}}},
			{"doc", "rk", []SearchResult{{"rk", "ex:e", "Entity"}, {"rk", "ex:f", "Entity"}}},
		} {
			var got []SearchResult
			for _, r := range s.FindByAttr(tc.key, tc.want) {
				if r.Doc == "rk" {
					got = append(got, r)
				}
			}
			if !slices.Equal(got, tc.hits) {
				t.Errorf("shards=%d: FindByAttr(%q, %#v) in the repeated-key document = %v, want %v", shards, tc.key, tc.want, got, tc.hits)
			}
		}
	}
}
