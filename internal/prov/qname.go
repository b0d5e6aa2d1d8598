// Package prov implements the W3C PROV data model (PROV-DM) with
// PROV-JSON and PROV-N serializations, document validation and graph
// traversal. It is the foundation of the yProv4ML provenance
// producer and of the yProv service (provstore/provservice).
//
// The subset implemented covers everything the yProv4ML data model needs:
// entities, activities and agents with typed attributes, and the core
// relations used / wasGeneratedBy / wasAssociatedWith / wasAttributedTo /
// wasDerivedFrom / wasInformedBy / actedOnBehalfOf / wasStartedBy /
// wasEndedBy / hadMember / specializationOf / alternateOf.
//
// PROV-JSON is decoded by a hand-written single-pass decoder
// (json_decode.go, over internal/jsonscan) that accepts what the
// encoding/json-based decoder before it accepted — a differential fuzz
// test holds it to that — with one exception: the document must be a
// JSON object, a top-level null is an error. In short: sections and
// records may be null (empty); unknown sections are ignored but must be
// well-formed; of a repeated section, id or attribute the last one
// counts; attribute values are bare scalars or {"$", "type"} literals,
// never null or arrays; a prov:startTime, prov:endTime or prov:time
// that is an xsd:dateTime literal or a bare string in RFC 3339 or the
// zone-less W3C form becomes the time, anything else stays an
// attribute. The comment in json_decode.go has the full list. It is
// written by jsonEmitter (json.go), to the bytes of the encoding/json
// encoder before it, which a second differential fuzz test holds it to.
package prov

import (
	"maps"
	"slices"
	"strings"
)

// Well-known namespace URIs registered in every new Document.
const (
	NSProv    = "http://www.w3.org/ns/prov#"
	NSXSD     = "http://www.w3.org/2001/XMLSchema#"
	NSProvML  = "http://example.org/ns/provml#"
	NSYProv   = "http://yprov.disi.unitn.it/ns/yprov#"
	NSDefault = "http://example.org/ns/default#"
)

// QName is a qualified name, i.e. "prefix:local". The zero QName is invalid.
type QName string

// NewQName builds a qualified name from a prefix and local part.
func NewQName(prefix, local string) QName {
	return QName(prefix + ":" + local)
}

// Prefix returns the namespace prefix of q, or "" if q has no colon.
func (q QName) Prefix() string {
	if i := strings.IndexByte(string(q), ':'); i >= 0 {
		return string(q)[:i]
	}
	return ""
}

// Local returns the local part of q (everything after the first colon).
func (q QName) Local() string {
	if i := strings.IndexByte(string(q), ':'); i >= 0 {
		return string(q)[i+1:]
	}
	return string(q)
}

// Valid reports whether q has a non-empty prefix and local part.
func (q QName) Valid() bool {
	i := strings.IndexByte(string(q), ':')
	return i > 0 && i < len(q)-1
}

func (q QName) String() string { return string(q) }

// NamespaceSet maps prefixes to namespace URIs for one document.
type NamespaceSet struct {
	byPrefix map[string]string
}

// NewNamespaceSet returns a set pre-populated with the prov, xsd, provml
// and yprov namespaces.
func NewNamespaceSet() *NamespaceSet {
	ns := &NamespaceSet{byPrefix: make(map[string]string)}
	for _, b := range defaultBindings {
		ns.Register(b.prefix, b.uri)
	}
	return ns
}

// defaultBindings are the namespaces every new Document registers.
var defaultBindings = []nsBinding{{"prov", NSProv}, {"xsd", NSXSD}, {"provml", NSProvML}, {"yprov", NSYProv}, {"ex", NSDefault}}

// Register binds prefix to uri, replacing any previous binding.
func (n *NamespaceSet) Register(prefix, uri string) {
	n.byPrefix[prefix] = uri
}

// Lookup returns the URI bound to prefix.
func (n *NamespaceSet) Lookup(prefix string) (string, bool) {
	uri, ok := n.byPrefix[prefix]
	return uri, ok
}

// Prefixes returns all registered prefixes in sorted order.
func (n *NamespaceSet) Prefixes() []string { return slices.Sorted(maps.Keys(n.byPrefix)) }
