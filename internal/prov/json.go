package prov

import (
	"bytes"
	"encoding/json"
)

// PROV-JSON serialization per the W3C PROV-JSON member submission:
// a top-level object with a "prefix" section and one section per element
// class / relation kind, each mapping identifiers to attribute records.

// MarshalJSON serializes the document to PROV-JSON with deterministic
// (sorted) key order, which encoding/json guarantees for maps.
func (d *Document) MarshalJSON() ([]byte, error) {
	top := make(map[string]interface{})

	prefix := make(map[string]string)
	for _, p := range d.Namespaces.Prefixes() {
		uri, _ := d.Namespaces.Lookup(p)
		prefix[p] = uri
	}
	top["prefix"] = prefix

	if len(d.Entities) > 0 {
		sec := make(map[string]map[string]Value, len(d.Entities))
		for id, e := range d.Entities {
			sec[string(id)] = attrRecord(e.Attrs, nil)
		}
		top["entity"] = sec
	}
	if len(d.Activities) > 0 {
		sec := make(map[string]map[string]Value, len(d.Activities))
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
		sec := make(map[string]map[string]Value, len(d.Agents))
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
		sec := make(map[string]map[string]Value, len(rels))
		for _, r := range rels {
			rec := attrRecord(r.Attrs, nil)
			rec[subjRole] = Ref(r.Subject)
			rec[objRole] = Ref(r.Object)
			if !r.Time.IsZero() {
				rec["prov:time"] = Time(r.Time)
			}
			sec[r.ID] = rec
		}
		top[string(kind)] = sec
	}

	return json.Marshal(top)
}

// MarshalIndent renders the document as indented PROV-JSON.
func (d *Document) MarshalIndent() ([]byte, error) {
	raw, err := d.MarshalJSON()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func attrRecord(attrs Attrs, extra map[string]Value) map[string]Value {
	rec := make(map[string]Value, len(attrs)+len(extra))
	for k, v := range attrs {
		rec[k] = v
	}
	for k, v := range extra {
		rec[k] = v
	}
	return rec
}
