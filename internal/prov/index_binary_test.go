package prov

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// checkIndexBinary holds IndexBinary to its oracle on data. When it
// accepts, ParseBinary accepts, and its index equals NewIndex over the
// decoded document — node names and order, both row sets, Dangling (nil
// or not, and which relation) — and its census equals the document's
// Stats and the multiset of its elements' prov:type string forms. When
// only ParseBinary accepts, the blob's string table spells a node name
// of the decoded document twice, and IndexBinary's error names it. They
// never disagree otherwise.
func checkIndexBinary(t *testing.T, data []byte) (*Index, Census) {
	t.Helper()
	doc, derr := ParseBinary(data)
	ix, census, err := IndexBinary(data)
	switch {
	case err == nil && derr != nil:
		t.Fatalf("IndexBinary accepts what ParseBinary refuses: %v", derr)
	case err != nil && derr == nil:
		twice := nodeNamesWrittenTwice(data, doc)
		if len(twice) == 0 {
			t.Fatalf("IndexBinary refuses what ParseBinary accepts, and no node name is written twice: %v", err)
		}
		name, ok := strings.CutPrefix(err.Error(), "prov: binary document writes node name ")
		if name, _ = strings.CutSuffix(name, " twice"); !ok || !slices.Contains(twice, QName(name)) {
			t.Fatalf("IndexBinary refuses with %q; the names written twice are %q", err, twice)
		}
		return nil, Census{}
	case err != nil:
		return nil, Census{}
	}
	want := NewIndex(doc)
	if ix.Len() != want.Len() {
		t.Fatalf("%d nodes, the decoded document's index has %d", ix.Len(), want.Len())
	}
	for id := int32(0); id < int32(ix.Len()); id++ {
		if got, w := ix.Name(id), want.Name(id); got != w {
			t.Fatalf("Name(%d) = %q, the decoded document's index says %q", id, got, w)
		}
		for _, dir := range []Direction{Forward, Reverse} {
			if got, w := ix.Row(id, dir), want.Row(id, dir); !slices.Equal(got, w) {
				t.Fatalf("Row(%q, %d) = %v, the decoded document's index says %v", ix.Name(id), dir, got, w)
			}
		}
	}
	got, w := ix.Dangling(), want.Dangling()
	if (got == nil) != (w == nil) {
		t.Fatalf("Dangling() = %v, the decoded document's index says %v", got, w)
	}
	if got != nil && (got.ID != w.ID || got.Kind != w.Kind || got.Subject != w.Subject || got.Object != w.Object) {
		t.Fatalf("Dangling() = %+v, the decoded document's index says %+v", *got, *w)
	}
	if census.Stats != doc.Stats() {
		t.Fatalf("census counts %+v, the decoded document %+v", census.Stats, doc.Stats())
	}
	var hits []string
	for _, h := range census.Types {
		hits = append(hits, h.Class+" "+string(ix.Name(h.Node))+" "+h.Type)
	}
	if wantHits := typeHitsOf(doc); !slices.Equal(sorted(hits), wantHits) {
		t.Fatalf("type hits %q, the decoded document's %q", sorted(hits), wantHits)
	}
	return ix, census
}

// typeHitsOf lists, sorted, "class node type" for every element of d
// whose prov:type has a string form.
func typeHitsOf(d *Document) []string {
	var out []string
	add := func(class string, id QName, a Attrs) {
		if v, ok := a[typeKey]; ok {
			switch v.Kind() {
			case KindInt, KindFloat, KindBool:
			default:
				out = append(out, class+" "+string(id)+" "+v.AsString())
			}
		}
	}
	for id, e := range d.Entities {
		add("Entity", id, e.Attrs)
	}
	for id, a := range d.Activities {
		add("Activity", id, a.Attrs)
	}
	for id, g := range d.Agents {
		add("Agent", id, g.Attrs)
	}
	return sorted(out)
}

// nodeNamesWrittenTwice lists the node names of d — its elements' ids
// and its relations' endpoints — that two strings of the string table
// of data, d's blob, spell.
func nodeNamesWrittenTwice(data []byte, d *Document) []QName {
	r := binReader{buf: data}
	if err := r.walk(nopVisitor{}); err != nil {
		return nil
	}
	spelled := map[string]int{}
	for _, s := range r.tab {
		spelled[s]++
	}
	nodes := map[QName]bool{}
	for q := range d.Entities {
		nodes[q] = true
	}
	for q := range d.Activities {
		nodes[q] = true
	}
	for q := range d.Agents {
		nodes[q] = true
	}
	for _, rel := range d.Relations {
		nodes[rel.Subject], nodes[rel.Object] = true, true
	}
	var twice []QName
	for q := range nodes {
		if spelled[string(q)] > 1 {
			twice = append(twice, q)
		}
	}
	return twice
}

// nopVisitor walks a blob and keeps nothing but the reader's string
// table.
type nopVisitor struct{}

func (nopVisitor) namespace(prefix, uri int32) {}
func (nopVisitor) section(sec, n int)          {}
func (nopVisitor) element(c uint8, id int32, attrs []binAttr, start, end time.Time) error {
	return nil
}
func (nopVisitor) relation(id, kind, subject, object int32, t time.Time, attrs []binAttr) error {
	return nil
}

func sorted(s []string) []string {
	slices.Sort(s)
	return s
}

// binaryDecodeCorpus reads FuzzBinaryDocDecode's committed corpus ("go
// test fuzz v1" files holding one []byte each).
func binaryDecodeCorpus(f *testing.F) [][]byte {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzBinaryDocDecode", "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no FuzzBinaryDocDecode corpus (%v)", err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzIndexBinaryMatchesDecode holds IndexBinary to ParseBinary on the
// same bytes (checkIndexBinary): what IndexBinary accepts decodes, to a
// document with the same index and census, and what only ParseBinary
// accepts spells a node name twice. Seeded with FuzzBinaryDocDecode's seeds and
// corpus and the hand-written shapes of TestIndexBinaryShapes.
func FuzzIndexBinaryMatchesDecode(f *testing.F) {
	for _, s := range binaryDecodeSeeds() {
		f.Add(s)
	}
	for _, s := range binaryDecodeCorpus(f) {
		f.Add(s)
	}
	for _, tc := range indexBinaryShapes() {
		f.Add(tc.blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexBinary(t, data)
	})
}

// rawBlob writes a binary document by hand, for shapes AppendBinary
// never writes: every string is new (token 0) unless written by ref.
type rawBlob []byte

func (b rawBlob) uv(v uint64) rawBlob { return binary.AppendUvarint(b, v) }
func (b rawBlob) str(s string) rawBlob {
	return append(b.uv(0).uv(uint64(len(s))), s...)
}
func (b rawBlob) ref(tok int) rawBlob { return b.uv(uint64(tok)) }

// typed appends a one-attribute list holding prov:type as a new string
// and the value v (its kind byte and payload).
func (b rawBlob) typed(v ...byte) rawBlob { return append(b.uv(1).str(typeKey), v...) }

type indexBinaryShape struct {
	name     string
	blob     []byte
	stats    Stats
	nodes    []QName
	hits     []string // sorted "class node type"
	dangling bool
	refused  string // in IndexBinary's error, when it refuses
	parses   bool   // ParseBinary accepts what IndexBinary refuses
}

// indexBinaryShapes are the corners where the binary format can say
// more than a Document holds, and what each decoder makes of them.
func indexBinaryShapes() []indexBinaryShape {
	// no namespaces; clipped, so that no two shapes share its array
	head := slices.Clip(rawBlob{BinaryDocTag}.uv(0))
	strVal := func(s string) []byte { return rawBlob{binKindString}.str(s) }
	when := time.Date(2025, 6, 1, 2, 3, 4, 5000, time.UTC)
	timeVal := appendTime([]byte{binKindTime}, when)
	// 16 entities, then a relation from each to the next whose endpoints
	// are new copies of their names: 48 node strings for 16 names, more
	// than an unstable sort keeps in order, which once made IndexBinary
	// panic.
	ring := head.uv(16)
	for i := range 16 {
		ring = ring.str(fmt.Sprintf("ex:n%02d", 15-i)).uv(0)
	}
	ring = ring.uv(0).uv(0).uv(16)
	for i := range 16 {
		ring = ring.str("_:r").str("used").str(fmt.Sprintf("ex:n%02d", i)).str(fmt.Sprintf("ex:n%02d", (i+1)%16)).uv(0).uv(0)
	}
	return []indexBinaryShape{
		{
			name: "an entity declared twice: refused",
			// entities: ex:e {prov:type "a"}, ex:e {prov:type "b"}
			blob: head.uv(2).str("ex:e").typed(strVal("a")...).ref(1).uv(1).ref(2).append(strVal("b")...).
				uv(0).uv(0).uv(0),
			refused: "declares Entity ex:e twice",
		},
		{
			name:    "an activity declared twice: refused",
			blob:    head.uv(0).uv(2).str("ex:a").uv(0).uv(0).uv(0).ref(1).uv(0).uv(0).uv(0).uv(0).uv(0),
			refused: "declares Activity ex:a twice",
		},
		{
			name:    "an agent declared twice: refused",
			blob:    head.uv(0).uv(0).uv(2).str("ex:g").uv(0).ref(1).uv(0).uv(0),
			refused: "declares Agent ex:g twice",
		},
		{
			name: "an id in two classes: one node, two hits",
			blob: head.uv(1).str("ex:x").typed(strVal("t1")...).
				uv(1).ref(1).uv(1).ref(2).append(strVal("t2")...).uv(0).uv(0).
				uv(0).uv(0),
			stats: Stats{Entities: 1, Activities: 1},
			nodes: []QName{"ex:x"},
			hits:  []string{"Activity ex:x t2", "Entity ex:x t1"},
		},
		{
			name: "a repeated attribute key: the last value wins",
			// ex:e {prov:type "a", prov:type "b"}, ex:f {prov:type "a", prov:type 3}
			blob: head.uv(2).str("ex:e").uv(2).str(typeKey).append(strVal("a")...).ref(2).append(strVal("b")...).
				str("ex:f").uv(2).ref(2).append(rawBlob{binKindString}.ref(3)...).ref(2).append(binKindInt, 6).
				uv(0).uv(0).uv(0),
			stats: Stats{Entities: 2},
			nodes: []QName{"ex:e", "ex:f"},
			hits:  []string{"Entity ex:e b"},
		},
		{
			name:  "a time-kind prov:type: its RFC 3339 string form",
			blob:  head.uv(0).uv(0).uv(1).str("ex:g").typed(timeVal...).uv(0),
			stats: Stats{Agents: 1},
			nodes: []QName{"ex:g"},
			hits:  []string{"Agent ex:g " + when.Format(time.RFC3339Nano)},
		},
		{
			name: "int, float and bool types: no hit; a qualified name: a hit",
			blob: head.uv(4).str("ex:i").typed(binKindInt, 84).
				str("ex:f").uv(1).ref(2).append(binary.LittleEndian.AppendUint64([]byte{binKindFloat}, math.Float64bits(2.5))...).
				str("ex:b").uv(1).ref(2).append(binKindBool, 1).
				str("ex:r").uv(1).ref(2).append(rawBlob{binKindRef}.str("ex:Model")...).
				uv(0).uv(0).uv(0),
			stats: Stats{Entities: 4},
			nodes: []QName{"ex:b", "ex:f", "ex:i", "ex:r"},
			hits:  []string{"Entity ex:r ex:Model"},
		},
		{
			name: "a name twice in the string table: IndexBinary refuses",
			// entity ex:e, activity ex:e (a new copy), a relation to a third copy and from an undeclared ex:u
			blob: head.uv(1).str("ex:e").uv(0).uv(1).str("ex:e").uv(0).uv(0).uv(0).uv(0).
				uv(1).str("_:r").str("used").str("ex:u").str("ex:e").uv(0).uv(0),
			parses:  true,
			refused: "writes node name ex:e twice",
		},
		{
			name:    "a 16-name ring of copied names: IndexBinary refuses",
			blob:    ring,
			parses:  true,
			refused: "writes node name ex:n",
		},
		{
			name:    "a count beyond the bytes left",
			blob:    head.uv(0).uv(0).uv(0).uv(3).append(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
			refused: "count 3 exceeds input",
		},
	}
}

func (b rawBlob) append(v ...byte) rawBlob { return append(b, v...) }

// TestIndexBinaryShapes: an id in two classes, a repeated attribute key
// and every kind of prov:type value index and count as the decoded
// document has them; an id declared twice in a class, which AppendBinary
// never writes, is refused by both decoders, and a name twice in the
// string table by IndexBinary.
func TestIndexBinaryShapes(t *testing.T) {
	for _, tc := range indexBinaryShapes() {
		t.Run(tc.name, func(t *testing.T) {
			ix, census := checkIndexBinary(t, tc.blob)
			if tc.refused != "" {
				if _, _, err := IndexBinary(tc.blob); err == nil || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("IndexBinary error %v, want one saying %q", err, tc.refused)
				}
				if _, err := ParseBinary(tc.blob); (err == nil) != tc.parses {
					t.Fatalf("ParseBinary error %v, want one: %v", err, !tc.parses)
				}
				return
			}
			if ix == nil {
				_, err := ParseBinary(tc.blob)
				t.Fatalf("refused: %v", err)
			}
			var nodes []QName
			for id := int32(0); id < int32(ix.Len()); id++ {
				nodes = append(nodes, ix.Name(id))
			}
			if !slices.Equal(nodes, tc.nodes) {
				t.Errorf("nodes %q, want %q", nodes, tc.nodes)
			}
			if census.Stats != tc.stats {
				t.Errorf("counts %+v, want %+v", census.Stats, tc.stats)
			}
			var hits []string
			for _, h := range census.Types {
				hits = append(hits, h.Class+" "+string(ix.Name(h.Node))+" "+h.Type)
			}
			if !slices.Equal(sorted(hits), tc.hits) {
				t.Errorf("hits %q, want %q", hits, tc.hits)
			}
			if (ix.Dangling() != nil) != tc.dangling {
				t.Errorf("Dangling() = %v, want one: %v", ix.Dangling(), tc.dangling)
			}
		})
	}
}

// TestIndexBinaryMatchesDecode runs checkIndexBinary over the encodings
// of the fuzz seed documents, chain documents, and randomized documents
// with dangling endpoints and prov:type values of every kind.
func TestIndexBinaryMatchesDecode(t *testing.T) {
	docs := fuzzSeedDocs()
	for _, depth := range []int{12, 64, 256} {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	rng := rand.New(rand.NewSource(38))
	types := []Value{Str("provml:Model"), Ref("ex:Dataset"), Int(3), Float(1.5), Bool(false), Time(time.Unix(1700000000, 1).UTC()), Str("")}
	for i := 0; i < 200; i++ {
		d := randomOracleDoc(rng, i%2 == 0)
		for _, el := range d.Entities {
			if rng.Intn(2) == 0 {
				el.Attrs = Attrs{typeKey: types[rng.Intn(len(types))], "ex:n": Int(int64(i))}
			}
		}
		for _, a := range d.Activities {
			if rng.Intn(3) == 0 {
				a.Attrs = Attrs{typeKey: types[rng.Intn(len(types))]}
			}
		}
		docs = append(docs, d)
	}
	for i, d := range docs {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkIndexBinary(t, AppendBinary(nil, d)) })
	}
}

// TestIndexBinaryKeepsNoBlob: every name and type string IndexBinary
// hands out lies in the index's own arena or the census's, not in the
// blob.
func TestIndexBinaryKeepsNoBlob(t *testing.T) {
	for i, d := range fuzzSeedDocs() {
		blob := AppendBinary(nil, d)
		ix, census, err := IndexBinary(blob)
		if err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(blob)))
		hi := lo + uintptr(len(blob))
		inBlob := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return len(s) > 0 && p >= lo && p < hi
		}
		for id := int32(0); id < int32(ix.Len()); id++ {
			if inBlob(string(ix.Name(id))) {
				t.Fatalf("doc %d: Name(%d) = %q aliases the blob", i, id, ix.Name(id))
			}
		}
		for _, h := range census.Types {
			if inBlob(h.Type) || inBlob(h.Class) {
				t.Fatalf("doc %d: type hit %+v aliases the blob", i, h)
			}
		}
	}
}

// TestBinaryCountsBoundedByInput: a blob declaring far more relations
// or attributes than its bytes could hold is refused before the count
// sizes anything, by ParseBinary and IndexBinary alike. Before counts
// were bounded by the smallest encoding of an item, a 100 KB blob
// declaring 100 000 relations made ParseBinary allocate 13.8 MB, and
// one declaring 100 000 attributes 10.7 MB. A count exactly at that
// bound passes the check, and the first item then fails to decode (the
// filler is no valid varint); it allocated 51 times the blob for
// relations, when ParseBinary sized its slabs by the count alone.
func TestBinaryCountsBoundedByInput(t *testing.T) {
	filler := make([]byte, 100_000)
	bad := bytes.Repeat([]byte{0xFF}, len(filler))
	head := rawBlob{BinaryDocTag}.uv(0)
	n := uint64(len(filler))
	for name, blob := range map[string][]byte{
		"100 000 relations":            head.uv(0).uv(0).uv(0).uv(100_000).append(filler...),
		"100 000 attributes":           head.uv(1).str("ex:e").uv(100_000).append(filler...),
		"entities at the bound":        head.uv(n / minElementBytes).append(bad...),
		"activities at the bound":      head.uv(0).uv(n / minActivityBytes).append(bad...),
		"agents at the bound":          head.uv(0).uv(0).uv(n / minElementBytes).append(bad...),
		"relations at the bound":       head.uv(0).uv(0).uv(0).uv(n / minRelationBytes).append(bad...),
		"attributes at the bound":      head.uv(1).str("ex:e").uv(n / minAttrBytes).append(bad...),
		"relation attributes at bound": head.uv(0).uv(0).uv(0).uv(1).uv(0).uv(0).uv(0).uv(0).uv(0).uv(n / minAttrBytes).append(bad...),
	} {
		for decoder, decode := range map[string]func([]byte) error{
			"ParseBinary": func(b []byte) error { _, err := ParseBinary(b); return err },
			"IndexBinary": func(b []byte) error { _, _, err := IndexBinary(b); return err },
		} {
			if decode(blob) == nil {
				t.Fatalf("%s accepts %s", decoder, name)
			}
			_, bytes := allocsAndBytes(5, func() { _ = decode(blob) })
			t.Logf("%s on a %d-byte blob declaring %s: %.0f bytes allocated", decoder, len(blob), name, bytes)
			if bytes > 2*float64(len(blob)) {
				t.Errorf("%s allocates %.0f bytes on a %d-byte blob declaring %s, over twice its length", decoder, bytes, len(blob), name)
			}
		}
	}
}

// TestIndexBinaryAllocs bounds what indexing the blob of a depth-256
// chain document allocates: the index, its name arena and one slab for
// its offsets and rows, with the walk's scratch pooled.
func TestIndexBinaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled build scratch at random")
	}
	d, err := ParseJSON(chainDocJSON(256))
	if err != nil {
		t.Fatal(err)
	}
	blob := AppendBinary(nil, d)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := IndexBinary(blob); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("IndexBinary on a depth-256 chain: %.0f allocations", allocs)
	if allocs > 11 {
		t.Errorf("IndexBinary makes %.0f allocations on a depth-256 chain, over 11", allocs)
	}
}

// BenchmarkIndexBinary indexes the blob of a chain document of the
// benchmark corpus's three depths, beside BenchmarkNewIndex over the
// decoded document.
func BenchmarkIndexBinary(b *testing.B) {
	for _, depth := range []int{12, 64, 256} {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			b.Fatal(err)
		}
		blob := AppendBinary(nil, d)
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := IndexBinary(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParseBinary decodes the blob of a chain document of the
// benchmark corpus's three depths, beside BenchmarkIndexBinary over the
// same blobs.
func BenchmarkParseBinary(b *testing.B) {
	for _, depth := range []int{12, 64, 256} {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			b.Fatal(err)
		}
		blob := AppendBinary(nil, d)
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseBinary(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
