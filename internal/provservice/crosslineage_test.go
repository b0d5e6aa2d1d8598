package provservice

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provstore"
)

func TestCrossLineageEndpoint(t *testing.T) {
	srv, c := newTestServer(t)
	cross := func(node, dir string) (int, []provstore.CrossNode) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/v0/lineage?node=" + url.QueryEscape(node) + "&direction=" + dir)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Nodes []provstore.CrossNode `json:"nodes"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out.Nodes
	}
	// Two documents sharing the dataset entity.
	for i, run := range []string{"a", "b"} {
		d := prov.NewDocument()
		d.AddEntity("ex:dataset", nil)
		act := prov.NewQName("ex", "run_"+run)
		d.AddActivity(act, nil)
		model := prov.NewQName("ex", "model_"+run)
		d.AddEntity(model, nil)
		d.Used(act, "ex:dataset", time.Unix(int64(i), 0))
		d.WasGeneratedBy(model, act, time.Unix(int64(i+10), 0))
		if err := c.Upload("doc_"+run, d); err != nil {
			t.Fatal(err)
		}
	}
	status, nodes := cross("ex:dataset", string(provstore.Descendants))
	if status != http.StatusOK || len(nodes) != 4 { // run_a, run_b, model_a, model_b
		t.Fatalf("status %d, nodes = %v", status, nodes)
	}
	for _, n := range nodes {
		if len(n.Docs) == 0 {
			t.Errorf("node %s has no doc attribution", n.Node)
		}
	}
	if status, _ := cross("ex:ghost", string(provstore.Ancestors)); status != http.StatusNotFound {
		t.Errorf("unknown node: status %d, want 404", status)
	}
}
