package prov

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
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
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return v.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValueSpecialFloats(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		data, err := json.Marshal(Float(f))
		if err != nil {
			t.Fatal(err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
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

// TestValueUnmarshalJSON: json.Unmarshal into a Value or an Attrs, away
// from the document decoder, reads attribute values by the same rules —
// checked against the reference's value type on every form.
func TestValueUnmarshalJSON(t *testing.T) {
	for _, text := range []string{
		`"s"`, `"é😀\ud800"`, `true`, `false`, `0`, `-0`, `7`, `-7`, `1.5`, `1e3`, `9223372036854775808`, `1e400`,
		`null`, `[]`, `[1,"x"]`, `{}`, ` {"$" : "5" , "type" : "xsd:int"} `,
		`{"$":"5","type":"xsd:int","$":"6"}`, `{"$":5,"type":"xsd:int"}`, `{"$":"x","type":"xsd:int"}`, `{"$":"x","type":null}`,
		`{"$":"hola","lang":"es"}`, `{"$":"2024-01-02T03:04:05Z","type":"xsd:dateTime"}`, `{"$":"ex:a","type":"prov:QUALIFIED_NAME"}`,
		`{"$":"1","type":"xsd:long"}`, `{"$":"NaN","type":"xsd:double"}`, `{"$":"t","type":"xsd:boolean"}`,
	} {
		var got Value
		var want refValue
		gerr, werr := json.Unmarshal([]byte(text), &got), json.Unmarshal([]byte(text), &want)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%s: error %v, reference %v", text, gerr, werr)
		} else if gerr == nil && (!got.Equal(want.Value) || got.Kind() != want.Kind()) {
			t.Errorf("%s: %v (kind %d), reference %v (kind %d)", text, got.AsString(), got.Kind(), want.AsString(), want.Kind())
		}
	}

	var attrs Attrs
	src := `{"n":3,"f":2.5,"s":"x","t":{"$":"2024-01-02T03:04:05Z","type":"xsd:dateTime"},"n":4}`
	if err := json.Unmarshal([]byte(src), &attrs); err != nil {
		t.Fatal(err)
	}
	want := Attrs{"n": Int(4), "f": Float(2.5), "s": Str("x"), "t": Time(time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC))}
	if !attrsEqual(attrs, want) {
		t.Fatalf("Attrs = %v, want %v", attrs, want)
	}
	if err := json.Unmarshal([]byte(`{"k":null}`), &attrs); err == nil {
		t.Error("a null attribute value must be rejected")
	}
	// Called directly, without encoding/json's framing: one value, no more.
	var v Value
	if err := v.UnmarshalJSON([]byte(`"a" "b"`)); err == nil {
		t.Error("trailing bytes after the value must be rejected")
	}
	if err := v.UnmarshalJSON([]byte(`{"$":"1","type":"xsd:int"`)); err == nil {
		t.Error("a truncated value must be rejected")
	}
}

// TestRelationKindTables: the decoder sizes its per-kind state by
// numRelationKinds and reads every kind's role names.
func TestRelationKindTables(t *testing.T) {
	if len(AllRelationKinds) != numRelationKinds {
		t.Fatalf("AllRelationKinds lists %d kinds, numRelationKinds is %d", len(AllRelationKinds), numRelationKinds)
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
