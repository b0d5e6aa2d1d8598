package provservice

import (
	"fmt"
	"html"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/prov"
	"repro/internal/provgraph"
)

// The explorer endpoints are the stand-in for the yProv Explorer web
// application (a provenance *consumer* in the paper's ecosystem):
//
//	GET /explorer            list documents as HTML
//	GET /explorer/{id}       summary + ASCII lineage + DOT source
//	GET /explorer/{id}?node=ex:x&depth=4   root the lineage tree at a node

func (s *Service) handleExplorerIndex(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><title>yProv Explorer</title></head><body>")
	sb.WriteString("<h1>yProv Explorer</h1><ul>")
	for _, id := range s.store.List() {
		fmt.Fprintf(&sb, `<li><a href="/explorer/%s">%s</a></li>`, html.EscapeString(url.PathEscape(id)), html.EscapeString(id))
	}
	sb.WriteString("</ul></body></html>")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(sb.String()))
}

func (s *Service) handleExplorerDoc(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.EscapedPath(), "/explorer/")
	if u, err := url.PathUnescape(id); err == nil {
		id = u
	}
	if id == "" {
		s.handleExplorerIndex(w, r)
		return
	}
	// The lineage tree is bounded like every traversal (0 is the cap).
	depth, ok := parseBoundedDepth(w, r, "depth", 6, true)
	if !ok {
		return
	}
	v, ok := s.store.View(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "document %q does not exist", id)
		return
	}
	// The one read that decodes: provgraph renders a *prov.Document.
	doc := v.Document()
	root := prov.QName(r.URL.Query().Get("node"))
	if root == "" {
		// Default root: the first activity (typically the run execution).
		if acts := doc.ActivityIDs(); len(acts) > 0 {
			root = acts[0]
		} else if ents := doc.EntityIDs(); len(ents) > 0 {
			root = ents[0]
		}
	}

	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><title>yProv Explorer</title></head><body>")
	fmt.Fprintf(&sb, "<h1>%s</h1>", html.EscapeString(id))
	fmt.Fprintf(&sb, "<p>%s</p>", html.EscapeString(provgraph.Summary(doc)))
	if root != "" && doc.HasNode(root) {
		fmt.Fprintf(&sb, "<h2>Lineage from %s</h2><pre>%s</pre>",
			html.EscapeString(string(root)), html.EscapeString(provgraph.ASCII(doc, root, depth)))
	}
	fmt.Fprintf(&sb, "<h2>Graphviz</h2><pre>%s</pre>", html.EscapeString(provgraph.DOT(doc)))
	sb.WriteString("</body></html>")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(sb.String()))
}
