package prov

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// The encoding/json-based PROV-JSON decoder this package shipped until
// the single-pass decoder (json_decode.go) replaced it, kept verbatim as
// the reference FuzzParseJSONMatchesReference compares the new one
// against. Only the names changed: Document.UnmarshalJSON became
// referenceUnmarshal, and the attribute values decode through refValue,
// which carries the old Value.UnmarshalJSON, fromInterface and
// fromTyped; attrsOf turns a record of refValues into Attrs. One change
// since, made with the decoder's: see refTime.

// refValue is a Value that unmarshals the way Value used to.
type refValue struct{ Value }

func (v *refValue) UnmarshalJSON(data []byte) error {
	var raw interface{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	return v.fromInterface(raw)
}

func (v *refValue) fromInterface(raw interface{}) error {
	switch x := raw.(type) {
	case string:
		v.Value = Str(x)
		return nil
	case bool:
		v.Value = Bool(x)
		return nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			v.Value = Int(i)
			return nil
		}
		f, err := x.Float64()
		if err != nil {
			return fmt.Errorf("prov: bad number %q: %v", x.String(), err)
		}
		v.Value = Float(f)
		return nil
	case float64:
		v.Value = Float(x)
		return nil
	case map[string]interface{}:
		dollar, _ := x["$"].(string)
		typ, _ := x["type"].(string)
		return v.fromTyped(dollar, typ)
	}
	return fmt.Errorf("prov: unsupported attribute value %T", raw)
}

func (v *refValue) fromTyped(dollar, typ string) error {
	switch typ {
	case "xsd:long", "xsd:int", "xsd:integer", "xsd:short", "xsd:byte":
		i, err := strconv.ParseInt(dollar, 10, 64)
		if err != nil {
			return fmt.Errorf("prov: bad %s %q: %v", typ, dollar, err)
		}
		v.Value = Int(i)
	case "xsd:double", "xsd:float", "xsd:decimal":
		if f, ok := parseSpecialFloat(dollar); ok {
			v.Value = Float(f)
			return nil
		}
		f, err := strconv.ParseFloat(dollar, 64)
		if err != nil {
			return fmt.Errorf("prov: bad %s %q: %v", typ, dollar, err)
		}
		v.Value = Float(f)
	case "xsd:boolean":
		b, err := strconv.ParseBool(dollar)
		if err != nil {
			return fmt.Errorf("prov: bad xsd:boolean %q: %v", dollar, err)
		}
		v.Value = Bool(b)
	case "xsd:dateTime":
		t, err := time.Parse(time.RFC3339Nano, dollar)
		if err != nil {
			return fmt.Errorf("prov: bad xsd:dateTime %q: %v", dollar, err)
		}
		v.Value = Time(t)
	case "prov:QUALIFIED_NAME", "xsd:QName":
		v.Value = Ref(QName(dollar))
	case "", "xsd:string":
		v.Value = Str(dollar)
	default:
		// Unknown type: preserve the literal as a string so round-trips
		// do not lose data.
		v.Value = Str(dollar)
	}
	return nil
}

// refTime reads a prov:startTime, prov:endTime or prov:time value: an
// xsd:dateTime literal, or a bare string holding an RFC 3339 time or a
// zone-less one ("2012-04-01T15:21:00", UTC). Anything else is no time
// and stays an attribute.
func (v refValue) refTime() (time.Time, bool) {
	if t, ok := v.AsTime(); ok {
		return t, true
	}
	if v.Kind() != KindString {
		return time.Time{}, false
	}
	if t, err := time.Parse(time.RFC3339Nano, v.AsString()); err == nil {
		return t.UTC(), true
	}
	if t, err := time.ParseInLocation("2006-01-02T15:04:05.999999999", v.AsString(), time.UTC); err == nil {
		return t, true
	}
	return time.Time{}, false
}

// referenceParseJSON is the old ParseJSON.
func referenceParseJSON(data []byte) (*Document, error) {
	d := NewDocument()
	if err := referenceUnmarshal(d, data); err != nil {
		return nil, err
	}
	return d, nil
}

func referenceUnmarshal(d *Document, data []byte) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return fmt.Errorf("prov: invalid PROV-JSON: %w", err)
	}

	fresh := NewDocument()

	if rawPrefix, ok := top["prefix"]; ok {
		var prefix map[string]string
		if err := json.Unmarshal(rawPrefix, &prefix); err != nil {
			return fmt.Errorf("prov: invalid prefix section: %w", err)
		}
		for p, uri := range prefix {
			fresh.Namespaces.Register(p, uri)
		}
	}

	parseSection := func(name string) (map[string]map[string]refValue, error) {
		raw, ok := top[name]
		if !ok {
			return nil, nil
		}
		var sec map[string]map[string]refValue
		if err := json.Unmarshal(raw, &sec); err != nil {
			return nil, fmt.Errorf("prov: invalid %q section: %w", name, err)
		}
		return sec, nil
	}
	attrsOf := func(rec map[string]refValue) Attrs {
		if rec == nil {
			return nil
		}
		attrs := make(Attrs, len(rec))
		for k, v := range rec {
			attrs[k] = v.Value
		}
		return attrs
	}

	if sec, err := parseSection("entity"); err != nil {
		return err
	} else {
		for id, rec := range sec {
			fresh.AddEntity(QName(id), attrsOf(rec))
		}
	}
	if sec, err := parseSection("agent"); err != nil {
		return err
	} else {
		for id, rec := range sec {
			fresh.AddAgent(QName(id), attrsOf(rec))
		}
	}
	if sec, err := parseSection("activity"); err != nil {
		return err
	} else {
		for id, rec := range sec {
			attrs := make(Attrs, len(rec))
			var start, end time.Time
			for k, v := range rec {
				switch t, ok := v.refTime(); {
				case k == "prov:startTime" && ok:
					start = t
				case k == "prov:endTime" && ok:
					end = t
				default:
					attrs[k] = v.Value
				}
			}
			a := fresh.AddActivity(QName(id), attrs)
			a.StartTime = start
			a.EndTime = end
		}
	}

	for _, kind := range AllRelationKinds {
		sec, err := parseSection(string(kind))
		if err != nil {
			return err
		}
		if sec == nil {
			continue
		}
		subjRole, objRole, _ := RelationRoles(kind)
		// Sort relation ids for deterministic reconstruction order.
		ids := make([]string, 0, len(sec))
		for id := range sec {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rec := sec[id]
			rel := Relation{ID: id, Kind: kind, Attrs: make(Attrs)}
			for k, v := range rec {
				switch k {
				case subjRole:
					if q, ok := v.AsRef(); ok {
						rel.Subject = q
					} else {
						rel.Subject = QName(v.AsString())
					}
				case objRole:
					if q, ok := v.AsRef(); ok {
						rel.Object = q
					} else {
						rel.Object = QName(v.AsString())
					}
				default:
					if t, ok := v.refTime(); ok && k == "prov:time" {
						rel.Time = t
					} else {
						rel.Attrs[k] = v.Value
					}
				}
			}
			if rel.Subject == "" || rel.Object == "" {
				return fmt.Errorf("prov: relation %s/%s missing %s or %s", kind, id, subjRole, objRole)
			}
			fresh.AddRelation(rel)
		}
	}

	*d = *fresh
	return nil
}
