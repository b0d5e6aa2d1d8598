package prov

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"
)

// Attrs is an attribute bag keyed by qualified-name strings.
type Attrs map[string]Value

// SortedKeys returns the attribute keys in lexical order.
func (a Attrs) SortedKeys() []string { return slices.Sorted(maps.Keys(a)) }

// Element is a named PROV element (entity, activity or agent).
type Element struct {
	ID    QName
	Attrs Attrs
}

// Activity extends Element with optional start and end times.
type Activity struct {
	Element
	StartTime time.Time
	EndTime   time.Time
}

// RelationKind enumerates the PROV relation types supported.
type RelationKind string

// Relation kinds, named after their PROV-JSON section names.
const (
	RelUsed             RelationKind = "used"
	RelWasGeneratedBy   RelationKind = "wasGeneratedBy"
	RelWasAssociatedW   RelationKind = "wasAssociatedWith"
	RelWasAttributedTo  RelationKind = "wasAttributedTo"
	RelWasDerivedFrom   RelationKind = "wasDerivedFrom"
	RelWasInformedBy    RelationKind = "wasInformedBy"
	RelActedOnBehalfOf  RelationKind = "actedOnBehalfOf"
	RelWasStartedBy     RelationKind = "wasStartedBy"
	RelWasEndedBy       RelationKind = "wasEndedBy"
	RelHadMember        RelationKind = "hadMember"
	RelSpecializationOf RelationKind = "specializationOf"
	RelAlternateOf      RelationKind = "alternateOf"
)

// AllRelationKinds lists every supported relation kind in a stable order.
var AllRelationKinds = []RelationKind{
	RelUsed, RelWasGeneratedBy, RelWasAssociatedW, RelWasAttributedTo,
	RelWasDerivedFrom, RelWasInformedBy, RelActedOnBehalfOf,
	RelWasStartedBy, RelWasEndedBy, RelHadMember,
	RelSpecializationOf, RelAlternateOf,
}

// relationKinds holds, per relation kind, the PROV-JSON property names
// of its subject and object (RelationRoles), the node classes they must
// name (Validate) and the prefix of its generated ids (relID).
var relationKinds = map[RelationKind]struct{ subj, obj, subjClass, objClass, short string }{
	RelUsed:             {"prov:activity", "prov:entity", "activity", "entity", "u"},
	RelWasGeneratedBy:   {"prov:entity", "prov:activity", "entity", "activity", "g"},
	RelWasAssociatedW:   {"prov:activity", "prov:agent", "activity", "agent", "assoc"},
	RelWasAttributedTo:  {"prov:entity", "prov:agent", "entity", "agent", "attr"},
	RelWasDerivedFrom:   {"prov:generatedEntity", "prov:usedEntity", "entity", "entity", "d"},
	RelWasInformedBy:    {"prov:informed", "prov:informant", "activity", "activity", "inf"},
	RelActedOnBehalfOf:  {"prov:delegate", "prov:responsible", "agent", "agent", "del"},
	RelWasStartedBy:     {"prov:activity", "prov:trigger", "activity", "entity", "start"},
	RelWasEndedBy:       {"prov:activity", "prov:trigger", "activity", "entity", "end"},
	RelHadMember:        {"prov:collection", "prov:entity", "entity", "entity", "mem"},
	RelSpecializationOf: {"prov:specificEntity", "prov:generalEntity", "entity", "entity", "spec"},
	RelAlternateOf:      {"prov:alternate1", "prov:alternate2", "entity", "entity", "alt"},
}

// RelationRoles returns the PROV-JSON subject and object property names
// for kind, e.g. ("prov:activity", "prov:entity") for used.
func RelationRoles(kind RelationKind) (subject, object string, ok bool) {
	k, ok := relationKinds[kind]
	return k.subj, k.obj, ok
}

// Relation is one edge of a provenance document. Subject and Object
// follow the orientation listed in relationKinds; Time is optional and
// only meaningful for used / wasGeneratedBy / wasStartedBy / wasEndedBy.
type Relation struct {
	ID      string // local relation identifier, e.g. "_:u1"
	Kind    RelationKind
	Subject QName
	Object  QName
	Time    time.Time
	Attrs   Attrs
}

// Document is an in-memory W3C PROV document.
type Document struct {
	Namespaces *NamespaceSet
	Entities   map[QName]*Element
	Activities map[QName]*Activity
	Agents     map[QName]*Element
	Relations  []*Relation

	relSeq int // monotonically increasing relation-id counter
}

// NewDocument returns an empty document with the default namespaces.
func NewDocument() *Document {
	return &Document{
		Namespaces: NewNamespaceSet(),
		Entities:   make(map[QName]*Element),
		Activities: make(map[QName]*Activity),
		Agents:     make(map[QName]*Element),
	}
}

// AddEntity inserts (or returns the existing) entity with the given id.
func (d *Document) AddEntity(id QName, attrs Attrs) *Element {
	return addElement(d.Entities, id, attrs)
}

// AddActivity inserts (or returns the existing) activity with the given id.
func (d *Document) AddActivity(id QName, attrs Attrs) *Activity {
	if a, ok := d.Activities[id]; ok {
		a.Attrs = mergeAttrs(a.Attrs, attrs)
		return a
	}
	a := &Activity{Element: Element{ID: id, Attrs: ensureAttrs(attrs)}}
	d.Activities[id] = a
	return a
}

// AddAgent inserts (or returns the existing) agent with the given id.
func (d *Document) AddAgent(id QName, attrs Attrs) *Element {
	return addElement(d.Agents, id, attrs)
}

// addElement inserts the element id of m, or merges attrs into it.
func addElement(m map[QName]*Element, id QName, attrs Attrs) *Element {
	if e, ok := m[id]; ok {
		e.Attrs = mergeAttrs(e.Attrs, attrs)
		return e
	}
	e := &Element{ID: id, Attrs: ensureAttrs(attrs)}
	m[id] = e
	return e
}

func ensureAttrs(a Attrs) Attrs {
	if a == nil {
		return make(Attrs)
	}
	return a
}

// mergeAttrs copies src into dst, allocating dst only when there is
// something to copy (binary-decoded elements carry nil Attrs until an
// attribute actually lands on them).
func mergeAttrs(dst, src Attrs) Attrs {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(Attrs, len(src))
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// nextRelID mints a fresh blank-node relation identifier. Plain
// concatenation: Sprintf showed up in BuildProv profiles at ~9% of the
// relation-heavy document builds.
func (d *Document) nextRelID(kind RelationKind) string {
	d.relSeq++
	return relID(kind, d.relSeq)
}

// relID is the seq-th generated relation identifier, of a relation of
// kind.
func relID(kind RelationKind, seq int) string {
	short := "r"
	if k, ok := relationKinds[kind]; ok {
		short = k.short
	}
	return "_:" + short + strconv.Itoa(seq)
}

// AddRelation appends a relation edge and returns it. A fresh identifier
// is minted when rel.ID is empty.
func (d *Document) AddRelation(rel Relation) *Relation {
	if rel.ID == "" {
		rel.ID = d.nextRelID(rel.Kind)
	}
	if rel.Attrs == nil {
		rel.Attrs = make(Attrs)
	}
	r := rel
	d.Relations = append(d.Relations, &r)
	return &r
}

// Used records that activity used entity at time t (zero time allowed).
func (d *Document) Used(activity, entity QName, t time.Time) *Relation {
	return d.AddRelation(Relation{Kind: RelUsed, Subject: activity, Object: entity, Time: t})
}

// WasGeneratedBy records that entity was generated by activity at time t.
func (d *Document) WasGeneratedBy(entity, activity QName, t time.Time) *Relation {
	return d.AddRelation(Relation{Kind: RelWasGeneratedBy, Subject: entity, Object: activity, Time: t})
}

// WasAssociatedWith records that activity was associated with agent.
func (d *Document) WasAssociatedWith(activity, agent QName) *Relation {
	return d.AddRelation(Relation{Kind: RelWasAssociatedW, Subject: activity, Object: agent})
}

// WasAttributedTo records that entity was attributed to agent.
func (d *Document) WasAttributedTo(entity, agent QName) *Relation {
	return d.AddRelation(Relation{Kind: RelWasAttributedTo, Subject: entity, Object: agent})
}

// WasDerivedFrom records that generated was derived from used.
func (d *Document) WasDerivedFrom(generated, used QName) *Relation {
	return d.AddRelation(Relation{Kind: RelWasDerivedFrom, Subject: generated, Object: used})
}

// WasInformedBy records that informed was informed by informant.
func (d *Document) WasInformedBy(informed, informant QName) *Relation {
	return d.AddRelation(Relation{Kind: RelWasInformedBy, Subject: informed, Object: informant})
}

// ActedOnBehalfOf records a delegation between two agents.
func (d *Document) ActedOnBehalfOf(delegate, responsible QName) *Relation {
	return d.AddRelation(Relation{Kind: RelActedOnBehalfOf, Subject: delegate, Object: responsible})
}

// EntityIDs returns the entity identifiers in sorted order.
func (d *Document) EntityIDs() []QName { return sortedIDs(d.Entities) }

// AgentIDs returns the agent identifiers in sorted order.
func (d *Document) AgentIDs() []QName { return sortedIDs(d.Agents) }

// ActivityIDs returns the activity identifiers in sorted order.
func (d *Document) ActivityIDs() []QName { return sortedIDs(d.Activities) }

func sortedIDs[V any](m map[QName]V) []QName {
	return slices.Sorted(maps.Keys(m))
}

// HasNode reports whether id names an entity, activity or agent in d.
func (d *Document) HasNode(id QName) bool { return d.NodeKind(id) != "" }

// NodeKind returns "entity", "activity", "agent" or "".
func (d *Document) NodeKind(id QName) string {
	if _, ok := d.Entities[id]; ok {
		return "entity"
	}
	if _, ok := d.Activities[id]; ok {
		return "activity"
	}
	if _, ok := d.Agents[id]; ok {
		return "agent"
	}
	return ""
}

// Stats summarizes document cardinalities.
type Stats struct {
	Entities   int
	Activities int
	Agents     int
	Relations  int
}

// Stats returns counts of each element class in d.
func (d *Document) Stats() Stats {
	return Stats{
		Entities:   len(d.Entities),
		Activities: len(d.Activities),
		Agents:     len(d.Agents),
		Relations:  len(d.Relations),
	}
}

// Equal reports whether two documents contain the same elements and
// relations (ignoring relation identifiers and insertion order).
func (d *Document) Equal(other *Document) bool {
	if len(d.Entities) != len(other.Entities) ||
		len(d.Activities) != len(other.Activities) ||
		len(d.Agents) != len(other.Agents) ||
		len(d.Relations) != len(other.Relations) {
		return false
	}
	for id, e := range d.Entities {
		oe, ok := other.Entities[id]
		if !ok || !attrsEqual(e.Attrs, oe.Attrs) {
			return false
		}
	}
	for id, g := range d.Agents {
		og, ok := other.Agents[id]
		if !ok || !attrsEqual(g.Attrs, og.Attrs) {
			return false
		}
	}
	for id, a := range d.Activities {
		oa, ok := other.Activities[id]
		if !ok || !attrsEqual(a.Attrs, oa.Attrs) ||
			!a.StartTime.Equal(oa.StartTime) || !a.EndTime.Equal(oa.EndTime) {
			return false
		}
	}
	// Relations: compare as multisets keyed by (kind, subject, object, time).
	count := make(map[string]int, len(d.Relations))
	key := func(r *Relation) string {
		return fmt.Sprintf("%s|%s|%s|%d", r.Kind, r.Subject, r.Object, r.Time.UnixNano())
	}
	for _, r := range d.Relations {
		count[key(r)]++
	}
	for _, r := range other.Relations {
		count[key(r)]--
		if count[key(r)] < 0 {
			return false
		}
	}
	return true
}

func attrsEqual(a, b Attrs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		bv, ok := b[k]
		if !ok || !v.Equal(bv) {
			return false
		}
	}
	return true
}
