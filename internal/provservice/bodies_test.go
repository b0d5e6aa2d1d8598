package provservice

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provstore"
)

// oldSubgraph is the sub-document Document.Subgraph made before a
// subgraph was written from the blob: the elements nodes names and the
// relations both of whose endpoints it names, numbered afresh in the
// document's order, under all of the document's namespaces (a decoded
// document binds the defaults too).
func oldSubgraph(d *prov.Document, nodes []prov.QName) *prov.Document {
	keep := make(map[prov.QName]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
	}
	sub := prov.NewDocument()
	for _, p := range d.Namespaces.Prefixes() {
		uri, _ := d.Namespaces.Lookup(p)
		sub.Namespaces.Register(p, uri)
	}
	for id, e := range d.Entities {
		if keep[id] {
			sub.AddEntity(id, maps.Clone(e.Attrs))
		}
	}
	for id, a := range d.Activities {
		if keep[id] {
			na := sub.AddActivity(id, maps.Clone(a.Attrs))
			na.StartTime, na.EndTime = a.StartTime, a.EndTime
		}
	}
	for id, g := range d.Agents {
		if keep[id] {
			sub.AddAgent(id, maps.Clone(g.Attrs))
		}
	}
	for _, r := range d.Relations {
		if keep[r.Subject] && keep[r.Object] {
			sub.AddRelation(prov.Relation{Kind: r.Kind, Subject: r.Subject, Object: r.Object, Time: r.Time, Attrs: maps.Clone(r.Attrs)})
		}
	}
	return sub
}

// hubDoc is a hub activity that used twelve entities, and generated a
// thirteenth from them: its relations are added generations first, ids
// falling, so not in the by-kind, by-id order a blob transcoded from
// PROV-JSON has. Its values need escaping or a typed literal.
func hubDoc() *prov.Document {
	at := func(sec, nsec int64) time.Time { return time.Unix(sec, nsec).UTC() }
	d := prov.NewDocument()
	d.Namespaces.Register("ex", "http://example.org/<&>")
	hub := d.AddActivity("ex:hub", prov.Attrs{"ex:note": prov.Str("a<b & c>d \u2028 \u2029 \xff\xfe end"), "prov:startTime": prov.Str("shadowed")})
	hub.StartTime, hub.EndTime = at(1_700_000_000, 123456789), at(1_700_003_600, 0)
	d.AddEntity("ex:out", prov.Attrs{"ex:nan": prov.Float(math.NaN()), "ex:inf": prov.Float(math.Inf(1)), "ex:-inf": prov.Float(math.Inf(-1))})
	d.AddAgent("ex:<who&>", prov.Attrs{"ex:when": prov.Time(at(-5, 7)), "ex:n": prov.Int(-3), "ex:ok": prov.Bool(true), "ex:ref": prov.Ref("ex:hub")})
	d.WasGeneratedBy("ex:out", "ex:hub", at(1_700_003_600, 1))
	d.WasAssociatedWith("ex:hub", "ex:<who&>")
	for i := 12; i >= 1; i-- {
		in := prov.QName(fmt.Sprintf("ex:in%d", i))
		d.AddEntity(in, prov.Attrs{"ex:i": prov.Int(int64(i))})
		d.AddRelation(prov.Relation{ID: fmt.Sprintf("u%02d", i), Kind: prov.RelUsed, Subject: "ex:hub", Object: in, Time: at(1_700_000_000+int64(i), 0)})
	}
	return d
}

// TestBodiesMatchDecodedDocument holds every document GET and subgraph
// body, written from the stored blob, to the decoded document's: the
// GET to its MarshalIndent, and a subgraph to the MarshalIndent of
// oldSubgraph of it over the nodes within hops of the start node.
// MarshalIndent is in turn held to the encoding/json encoder it
// replaced by prov.FuzzJSONEmitMatchesReference. The documents are
// stored through the library's Put (blobs with the document's relation
// order) and through a PUT (blobs transcoded from PROV-JSON); the hub's
// subgraph keeps twelve used relations, renumbered _:u1 to _:u12 and
// written _:u1, _:u10, _:u11, _:u12, _:u2, ...
func TestBodiesMatchDecodedDocument(t *testing.T) {
	store := provstore.New()
	svc := New(store)
	docs := map[string]*prov.Document{"hub": hubDoc(), "run": checkpointRunDoc(3), "plain": testDoc()}
	for id, d := range docs {
		if err := store.Put(id, d); err != nil {
			t.Fatal(err)
		}
		raw, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		putBody(t, svc, id+"-put", raw)
	}
	var ids []string
	for id := range docs {
		ids = append(ids, id, id+"-put")
	}
	slices.Sort(ids)
	for _, id := range ids {
		v, ok := store.View(id)
		if !ok {
			t.Fatalf("%s: not stored", id)
		}
		doc := v.Document()
		want, err := doc.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if got := getReply(t, svc, "/api/v0/documents/"+id); got.status != http.StatusOK || got.body != string(want) {
			t.Fatalf("GET %s: %d\n%s\nthe decoded document's MarshalIndent\n%s", id, got.status, got.body, want)
		}
		ix, _, err := prov.IndexBinary(prov.AppendBinary(nil, doc))
		if err != nil {
			t.Fatal(err)
		}
		renumbered := false
		for n := range int32(ix.Len()) {
			start := ix.Name(n)
			for hops := range 3 {
				nodes := []prov.QName{start}
				if hops > 0 {
					reach, _ := ix.Reach(start, prov.Undirected, hops)
					nodes = append(nodes, reach...)
				}
				want, err := oldSubgraph(doc, nodes).MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				path := fmt.Sprintf("/api/v0/documents/%s/subgraph?node=%s&hops=%d", id, url.QueryEscape(string(start)), hops)
				got := getReply(t, svc, path)
				if got.status != http.StatusOK || got.body != string(want) {
					t.Fatalf("GET %s: %d\n%s\nthe old subgraph of the decoded document\n%s", path, got.status, got.body, want)
				}
				sub, err := prov.ParseJSON([]byte(got.body))
				if err != nil {
					t.Fatal(err)
				}
				renumbered = renumbered || len(sub.Relations) >= 10
			}
		}
		if id == "hub" && !renumbered {
			t.Errorf("%s: no subgraph keeps ten used relations", id)
		}
	}
}

func putBody(t *testing.T, svc http.Handler, id string, raw []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/api/v0/documents/"+url.PathEscape(id), bytes.NewReader(raw)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s: %d %s", id, rec.Code, rec.Body)
	}
}
