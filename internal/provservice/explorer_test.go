package provservice

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/prov"
	"repro/internal/provstore"
)

func TestExplorerIndex(t *testing.T) {
	store := provstore.New()
	if err := store.Put("doc-a", testDoc()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(store))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/explorer")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "doc-a") {
		t.Errorf("index missing document link:\n%s", body)
	}
}

func TestExplorerDocument(t *testing.T) {
	store := provstore.New()
	if err := store.Put("doc-a", testDoc()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(store))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/explorer/doc-a?node=ex:model&depth=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"entities=2", "ex:model", "digraph provenance"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("explorer page missing %q", want)
		}
	}
}

func TestExplorerMissingDoc(t *testing.T) {
	srv := httptest.NewServer(New(provstore.New()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/explorer/ghost")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestExplorerDepthBounded: the lineage tree's ?depth= is read as
// lineage reads its own — a depth that is no number or over the server
// maximum is a 400, and 0 means the maximum, not an unbounded walk over
// a chain longer than it.
func TestExplorerDepthBounded(t *testing.T) {
	const n = maxTraversalDepth + 4
	d := prov.NewDocument()
	for i := 0; i <= n; i++ {
		d.AddEntity(prov.QName(fmt.Sprintf("ex:e%d", i)), nil)
		if i > 0 {
			d.WasDerivedFrom(prov.QName(fmt.Sprintf("ex:e%d", i)), prov.QName(fmt.Sprintf("ex:e%d", i-1)))
		}
	}
	store := provstore.New()
	if err := store.Put("chain", d); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(store))
	defer srv.Close()
	page := func(depth string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/explorer/chain?node=ex:e%d&depth=%s", srv.URL, n, depth))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for _, bad := range []string{"abc", "-1", "2000", fmt.Sprint(maxTraversalDepth + 1)} {
		if status, body := page(bad); status != http.StatusBadRequest {
			t.Errorf("depth=%s: status %d, want 400: %.200s", bad, status, body)
		}
	}
	status, zero := page("0")
	_, capped := page(fmt.Sprint(maxTraversalDepth))
	if status != http.StatusOK || zero != capped {
		t.Errorf("depth=0: status %d, %d bytes; depth=%d: %d bytes; want the same page", status, len(zero), maxTraversalDepth, len(capped))
	}
	if strings.Contains(zero, "ex:e0 ") {
		t.Errorf("depth=0 walks past the %d-hop cap to the chain's origin", maxTraversalDepth)
	}
}
