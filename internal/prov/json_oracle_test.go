package prov

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
)

// The PROV-JSON encoder this package shipped until jsonEmitter replaced
// it, and Document.Subgraph, which SubgraphJSON replaced, kept with the
// helpers only they used (RelationsOfKind, Attrs.Clone and
// NamespaceSet.Clone) as the oracles FuzzJSONEmitMatchesReference holds
// the emitter to. Only the names changed: Document.MarshalJSON became
// oracleMarshalJSON, MarshalIndent oracleMarshalIndent, and attribute
// values encode through refValue, which carries the old
// Value.MarshalJSON.

// oracleMarshalJSON serializes the document to PROV-JSON with
// deterministic (sorted) key order, which encoding/json guarantees for
// maps.
func oracleMarshalJSON(d *Document) ([]byte, error) {
	top := make(map[string]interface{})

	prefix := make(map[string]string)
	for _, p := range d.Namespaces.Prefixes() {
		uri, _ := d.Namespaces.Lookup(p)
		prefix[p] = uri
	}
	top["prefix"] = prefix

	if len(d.Entities) > 0 {
		sec := make(map[string]map[string]refValue, len(d.Entities))
		for id, e := range d.Entities {
			sec[string(id)] = attrRecord(e.Attrs, nil)
		}
		top["entity"] = sec
	}
	if len(d.Activities) > 0 {
		sec := make(map[string]map[string]refValue, len(d.Activities))
		for id, a := range d.Activities {
			extra := make(map[string]Value)
			if !a.StartTime.IsZero() {
				extra["prov:startTime"] = Time(a.StartTime)
			}
			if !a.EndTime.IsZero() {
				extra["prov:endTime"] = Time(a.EndTime)
			}
			sec[string(id)] = attrRecord(a.Attrs, extra)
		}
		top["activity"] = sec
	}
	if len(d.Agents) > 0 {
		sec := make(map[string]map[string]refValue, len(d.Agents))
		for id, g := range d.Agents {
			sec[string(id)] = attrRecord(g.Attrs, nil)
		}
		top["agent"] = sec
	}

	for _, kind := range AllRelationKinds {
		rels := d.RelationsOfKind(kind)
		if len(rels) == 0 {
			continue
		}
		subjRole, objRole, _ := RelationRoles(kind)
		sec := make(map[string]map[string]refValue, len(rels))
		for _, r := range rels {
			rec := attrRecord(r.Attrs, nil)
			rec[subjRole] = refValue{Ref(r.Subject)}
			rec[objRole] = refValue{Ref(r.Object)}
			if !r.Time.IsZero() {
				rec["prov:time"] = refValue{Time(r.Time)}
			}
			sec[r.ID] = rec
		}
		top[string(kind)] = sec
	}

	return json.Marshal(top)
}

// oracleMarshalIndent renders the document as indented PROV-JSON.
func oracleMarshalIndent(d *Document) ([]byte, error) {
	raw, err := oracleMarshalJSON(d)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func attrRecord(attrs Attrs, extra map[string]Value) map[string]refValue {
	rec := make(map[string]refValue, len(attrs)+len(extra))
	for k, v := range attrs {
		rec[k] = refValue{v}
	}
	for k, v := range extra {
		rec[k] = refValue{v}
	}
	return rec
}

// typedJSON is the PROV-JSON {"$": ..., "type": ...} representation.
type typedJSON struct {
	Dollar string `json:"$"`
	Type   string `json:"type"`
}

// MarshalJSON renders the value in PROV-JSON attribute form.
func (v refValue) MarshalJSON() ([]byte, error) {
	switch v.Kind() {
	case KindString:
		return json.Marshal(v.s)
	case KindInt:
		return json.Marshal(typedJSON{Dollar: strconv.FormatInt(v.int(), 10), Type: "xsd:long"})
	case KindFloat:
		f := v.float()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return json.Marshal(typedJSON{Dollar: formatSpecialFloat(f), Type: "xsd:double"})
		}
		return json.Marshal(typedJSON{Dollar: strconv.FormatFloat(f, 'g', -1, 64), Type: "xsd:double"})
	case KindBool:
		return json.Marshal(v.bool())
	case KindTime:
		return json.Marshal(typedJSON{Dollar: v.time().Format(time.RFC3339Nano), Type: "xsd:dateTime"})
	case KindRef:
		return json.Marshal(typedJSON{Dollar: v.s, Type: "prov:QUALIFIED_NAME"})
	}
	return nil, fmt.Errorf("prov: cannot marshal value of kind %d", v.kind)
}

// RelationsOfKind returns all relations of the given kind in insertion order.
func (d *Document) RelationsOfKind(kind RelationKind) []*Relation {
	var out []*Relation
	for _, r := range d.Relations {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// Clone returns a copy of the attribute bag.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	c := make(Attrs, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Clone returns a deep copy of the namespace set.
func (n *NamespaceSet) Clone() *NamespaceSet {
	c := &NamespaceSet{byPrefix: make(map[string]string, len(n.byPrefix))}
	for k, v := range n.byPrefix {
		c.byPrefix[k] = v
	}
	return c
}

// Subgraph extracts the sub-document induced by the given node set:
// those elements plus every relation whose both endpoints are in the set.
func (d *Document) Subgraph(nodes []QName) *Document {
	keep := make(map[QName]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
	}
	sub := NewDocument()
	sub.Namespaces = d.Namespaces.Clone()
	for id, e := range d.Entities {
		if keep[id] {
			sub.AddEntity(id, e.Attrs.Clone())
		}
	}
	for id, a := range d.Activities {
		if keep[id] {
			na := sub.AddActivity(id, a.Attrs.Clone())
			na.StartTime, na.EndTime = a.StartTime, a.EndTime
		}
	}
	for id, g := range d.Agents {
		if keep[id] {
			sub.AddAgent(id, g.Attrs.Clone())
		}
	}
	for _, r := range d.Relations {
		if keep[r.Subject] && keep[r.Object] {
			sub.AddRelation(Relation{Kind: r.Kind, Subject: r.Subject, Object: r.Object, Time: r.Time, Attrs: r.Attrs.Clone()})
		}
	}
	return sub
}
