package prov

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/jsonscan"
)

func TestJSONRoundTrip(t *testing.T) {
	d := sampleDoc(t)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Fatalf("round-trip mismatch:\norig: %s\nback: %s", d.ProvN(), back.ProvN())
	}
}

func TestJSONDeterministic(t *testing.T) {
	d := sampleDoc(t)
	a, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("marshaling is not deterministic")
	}
}

func TestJSONSections(t *testing.T) {
	d := sampleDoc(t)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, sec := range []string{"prefix", "entity", "activity", "agent", "used", "wasGeneratedBy", "wasAssociatedWith", "wasAttributedTo", "wasDerivedFrom"} {
		if _, ok := top[sec]; !ok {
			t.Errorf("missing section %q", sec)
		}
	}
	if _, ok := top["hadMember"]; ok {
		t.Error("empty relation sections must be omitted")
	}
}

func TestParseJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseJSON([]byte("{not json")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := ParseJSON([]byte(`{"used": {"_:u1": {"prov:activity": "ex:a"}}}`)); err == nil {
		t.Error("relation missing endpoint must fail")
	}
}

func TestParseJSONScalarAttributes(t *testing.T) {
	src := `{
	  "prefix": {"ex": "http://example.org/"},
	  "entity": {"ex:e": {"ex:name": "foo", "ex:n": 3, "ex:f": 2.5, "ex:ok": true}}
	}`
	d, err := ParseJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	attrs := d.Entities["ex:e"].Attrs
	if v := attrs["ex:name"]; v.AsString() != "foo" {
		t.Errorf("ex:name = %v", v)
	}
	if v, _ := attrs["ex:n"].AsInt(); v != 3 {
		t.Errorf("ex:n = %d", v)
	}
	if v, _ := attrs["ex:f"].AsFloat(); v != 2.5 {
		t.Errorf("ex:f = %v", v)
	}
	if v, _ := attrs["ex:ok"].AsBool(); !v {
		t.Error("ex:ok should be true")
	}
}

// valueRoundTrip is v after MarshalJSON and ParseJSON, as the attribute
// of an entity.
func valueRoundTrip(v Value) (Value, error) {
	d := NewDocument()
	d.AddEntity("ex:e", Attrs{"ex:v": v})
	data, err := d.MarshalJSON()
	if err != nil {
		return Value{}, err
	}
	back, err := ParseJSON(data)
	if err != nil {
		return Value{}, err
	}
	return back.Entities["ex:e"].Attrs["ex:v"], nil
}

func TestValueRoundTripQuick(t *testing.T) {
	// Property: every generatable Value survives a JSON round trip.
	f := func(choice uint8, s string, i int64, fl float64, b bool) bool {
		var v Value
		switch choice % 5 {
		case 0:
			v = Str(s)
		case 1:
			v = Int(i)
		case 2:
			if math.IsNaN(fl) {
				fl = 0
			}
			v = Float(fl)
		case 3:
			v = Bool(b)
		case 4:
			v = Time(time.Unix(i%1_000_000_000, 0).UTC())
		}
		back, err := valueRoundTrip(v)
		return err == nil && v.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValueSpecialFloats(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		back, err := valueRoundTrip(Float(f))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := back.AsFloat()
		if math.IsNaN(f) != math.IsNaN(got) || (!math.IsNaN(f) && f != got) {
			t.Errorf("special float %v round-tripped to %v", f, got)
		}
	}
}

// randomDoc builds a random but valid document for property testing.
func randomDoc(rng *rand.Rand) *Document {
	d := NewDocument()
	nEnt := 1 + rng.Intn(8)
	nAct := 1 + rng.Intn(4)
	nAg := 1 + rng.Intn(3)
	var ents, acts, ags []QName
	for i := 0; i < nEnt; i++ {
		id := NewQName("ex", "e"+strings.Repeat("x", i%3)+string(rune('a'+i)))
		d.AddEntity(id, Attrs{"ex:v": Float(rng.NormFloat64())})
		ents = append(ents, id)
	}
	for i := 0; i < nAct; i++ {
		id := NewQName("ex", "act"+string(rune('a'+i)))
		a := d.AddActivity(id, Attrs{"ex:i": Int(rng.Int63n(1000))})
		a.StartTime = time.Unix(rng.Int63n(1e9), 0).UTC()
		a.EndTime = a.StartTime.Add(time.Duration(rng.Intn(3600)) * time.Second)
		acts = append(acts, id)
	}
	for i := 0; i < nAg; i++ {
		id := NewQName("ex", "agent"+string(rune('a'+i)))
		d.AddAgent(id, nil)
		ags = append(ags, id)
	}
	for i := 0; i < 10; i++ {
		e := ents[rng.Intn(len(ents))]
		a := acts[rng.Intn(len(acts))]
		g := ags[rng.Intn(len(ags))]
		switch rng.Intn(5) {
		case 0:
			d.Used(a, e, time.Time{})
		case 1:
			d.WasGeneratedBy(e, a, time.Unix(rng.Int63n(1e9), 0).UTC())
		case 2:
			d.WasAssociatedWith(a, g)
		case 3:
			d.WasAttributedTo(e, g)
		case 4:
			d.WasDerivedFrom(e, ents[rng.Intn(len(ents))])
		}
	}
	return d
}

func TestRandomDocRoundTripAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		d := randomDoc(rng)
		if _, err := d.Validate(); err != nil {
			t.Fatalf("random doc %d invalid: %v", i, err)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !d.Equal(back) {
			t.Fatalf("doc %d round-trip mismatch", i)
		}
		// Round trip twice: marshal(parse(marshal(d))) must be stable.
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatalf("doc %d not byte-stable across round trips", i)
		}
	}
}

func TestUnknownTypedValuePreserved(t *testing.T) {
	src := `{"entity": {"ex:e": {"ex:blob": {"$": "payload", "type": "ex:custom"}}}}`
	d, err := ParseJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Entities["ex:e"].Attrs["ex:blob"].AsString(); got != "payload" {
		t.Errorf("unknown typed literal lost: %q", got)
	}
}

// TestScanValueMatchesReference: scanValue, the attribute value reader
// of the document decoder, reads one value and no more, by the rules of
// the reference's value type on every form.
func TestScanValueMatchesReference(t *testing.T) {
	scan := func(text string) (Value, error) {
		sc := jsonscan.New([]byte(text))
		var strs stringArena
		v, bad, err := scanValue(&sc, &strs)
		if err == nil {
			err = sc.End()
		}
		if err == nil {
			err = bad
		}
		return v, err
	}
	for _, text := range []string{
		`"s"`, `"é😀\ud800"`, `true`, `false`, `0`, `-0`, `7`, `-7`, `1.5`, `1e3`, `9223372036854775808`, `1e400`,
		`null`, `[]`, `[1,"x"]`, `{}`, ` {"$" : "5" , "type" : "xsd:int"} `,
		`{"$":"5","type":"xsd:int","$":"6"}`, `{"$":5,"type":"xsd:int"}`, `{"$":"x","type":"xsd:int"}`, `{"$":"x","type":null}`,
		`{"$":"hola","lang":"es"}`, `{"$":"2024-01-02T03:04:05Z","type":"xsd:dateTime"}`, `{"$":"ex:a","type":"prov:QUALIFIED_NAME"}`,
		`{"$":"1","type":"xsd:long"}`, `{"$":"NaN","type":"xsd:double"}`, `{"$":"t","type":"xsd:boolean"}`,
	} {
		got, gerr := scan(text)
		var want refValue
		werr := json.Unmarshal([]byte(text), &want)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%s: error %v, reference %v", text, gerr, werr)
		} else if gerr == nil && (!got.Equal(want.Value) || got.Kind() != want.Kind()) {
			t.Errorf("%s: %v (kind %d), reference %v (kind %d)", text, got.AsString(), got.Kind(), want.AsString(), want.Kind())
		}
	}
	if _, err := scan(`"a" "b"`); err == nil {
		t.Error("trailing bytes after the value must be rejected")
	}
	if _, err := scan(`{"$":"1","type":"xsd:int"`); err == nil {
		t.Error("a truncated value must be rejected")
	}
}

// TestRelationKindTables: the decoder sizes its per-kind state by
// numRelationKinds and reads every kind's role names; the emitter
// writes the sections of jsonSections, by name: the prefix block, the
// three element classes and every kind.
func TestRelationKindTables(t *testing.T) {
	if len(AllRelationKinds) != numRelationKinds {
		t.Fatalf("AllRelationKinds lists %d kinds, numRelationKinds is %d", len(AllRelationKinds), numRelationKinds)
	}
	want := []string{"prefix", "entity", "activity", "agent"}
	for _, kind := range AllRelationKinds {
		want = append(want, string(kind))
	}
	if slices.Sort(want); !slices.Equal(jsonSections[:], want) {
		t.Errorf("jsonSections = %q, want %q", jsonSections, want)
	}
	for i, kind := range AllRelationKinds {
		if subj, obj, ok := RelationRoles(kind); !ok || subj == "" || obj == "" || subj == obj {
			t.Errorf("%s: roles %q, %q (%v)", kind, subj, obj, ok)
		}
		if got := sectionOf([]byte(kind)); got != secRelations+i {
			t.Errorf("sectionOf(%s) = %d, want %d", kind, got, secRelations+i)
		}
	}
}

// TestBareStringTimes: the W3C PROV-JSON examples and the Python prov
// package write times as bare strings. One in RFC 3339 or the zone-less
// W3C form (read as UTC) is lifted into its field; any other value is
// kept as the attribute it is, not dropped.
func TestBareStringTimes(t *testing.T) {
	d, err := ParseJSON([]byte(`{
	  "entity": {"ex:e": {}},
	  "activity": {
	    "ex:a": {"prov:startTime": "later", "prov:endTime": "2012-04-01T15:21:00"},
	    "ex:b": {"prov:startTime": "2012-04-01T17:21:00.5+02:00"}
	  },
	  "used": {
	    "_:u1": {"prov:activity": "ex:a", "prov:entity": "ex:e", "prov:time": "2012-03-31T09:21:00"},
	    "_:u2": {"prov:activity": "ex:b", "prov:entity": "ex:e", "prov:time": 7}
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	utc := func(h, m, s, ns int) time.Time { return time.Date(2012, 4, 1, h, m, s, ns, time.UTC) }
	sameTime := func(what string, got, want time.Time) {
		t.Helper()
		if !got.Equal(want) || got.Location() != time.UTC {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	a, b := d.Activities["ex:a"], d.Activities["ex:b"]
	sameTime("ex:a end", a.EndTime, utc(15, 21, 0, 0))
	sameTime("ex:b start", b.StartTime, utc(15, 21, 0, 5e8))
	if !a.StartTime.IsZero() || !a.Attrs["prov:startTime"].Equal(Str("later")) {
		t.Errorf("ex:a start %v, attributes %v: want no start time and prov:startTime kept as the string", a.StartTime, a.Attrs)
	}
	if _, ok := a.Attrs["prov:endTime"]; ok {
		t.Errorf("ex:a keeps its lifted end time as an attribute too: %v", a.Attrs)
	}
	used := d.RelationsOfKind(RelUsed)
	sameTime("_:u1 time", used[0].Time, time.Date(2012, 3, 31, 9, 21, 0, 0, time.UTC))
	if !used[1].Time.IsZero() || !used[1].Attrs["prov:time"].Equal(Int(7)) {
		t.Errorf("_:u2 time %v, attributes %v: want no time and prov:time kept as the integer", used[1].Time, used[1].Attrs)
	}

	raw, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDocument(back, d); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// primerJSON is the W3C PROV-JSON primer example committed as a seed of
// FuzzParseJSONMatchesReference.
func primerJSON(tb testing.TB) []byte {
	tb.Helper()
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseJSONMatchesReference", "seed-w3c-primer"))
	if err != nil {
		tb.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(seed), "[]byte(")
	text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		tb.Fatalf("seed-w3c-primer: %v", err)
	}
	return []byte(text)
}

// TestW3CPrimerRoundTrip: the primer's times, all bare zone-less
// strings, are read, and the document survives both codecs.
func TestW3CPrimerRoundTrip(t *testing.T) {
	d, err := ParseJSON(primerJSON(t))
	if err != nil {
		t.Fatal(err)
	}
	at := func(mon time.Month, day, h, m int) time.Time { return time.Date(2012, mon, day, h, m, 0, 0, time.UTC) }
	correct := d.Activities["ex:correct"]
	rel := map[string]*Relation{}
	for _, r := range d.Relations {
		rel[r.ID] = r
	}
	for _, c := range []struct {
		what      string
		got, want time.Time
	}{
		{"ex:correct start", correct.StartTime, at(time.March, 31, 9, 21)},
		{"ex:correct end", correct.EndTime, at(time.April, 1, 15, 21)},
		{"_:u4", rel["_:u4"].Time, at(time.March, 31, 9, 21)},
		{"_:wGB3", rel["_:wGB3"].Time, at(time.March, 2, 10, 30)},
		{"_:wGB4", rel["_:wGB4"].Time, at(time.April, 1, 15, 21)},
	} {
		if !c.got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if len(correct.Attrs) != 0 {
		t.Errorf("ex:correct keeps attributes %v", correct.Attrs)
	}

	raw, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDocument(back, d); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	bin, err := ParseBinary(AppendBinary(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := bin.MarshalJSON(); err != nil || string(again) != string(raw) {
		t.Fatalf("binary round trip: %s (%v), want %s", again, err, raw)
	}
}
