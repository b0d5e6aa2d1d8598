// Package provgraph renders PROV documents as Graphviz DOT and as a
// compact ASCII tree — the yProv Explorer stand-in that visualizes
// documents like the paper's Figure 1 (entities as ellipses, activities
// as boxes, agents as houses; "used" and "wasGeneratedBy" edges).
package provgraph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/prov"
)

// DOT renders the document in Graphviz syntax with the conventional
// PROV shapes and colors.
func DOT(d *prov.Document) string {
	var sb strings.Builder
	sb.WriteString("digraph provenance {\n")
	sb.WriteString("  rankdir=BT;\n")
	sb.WriteString("  node [fontsize=10];\n")

	for _, id := range d.EntityIDs() {
		label := nodeLabel(id, d.Entities[id].Attrs)
		fmt.Fprintf(&sb, "  %q [shape=ellipse, style=filled, fillcolor=\"#fffda0\", label=%q];\n", id, label)
	}
	for _, id := range d.ActivityIDs() {
		label := nodeLabel(id, d.Activities[id].Attrs)
		fmt.Fprintf(&sb, "  %q [shape=box, style=filled, fillcolor=\"#9fb1fc\", label=%q];\n", id, label)
	}
	for _, id := range d.AgentIDs() {
		label := nodeLabel(id, d.Agents[id].Attrs)
		fmt.Fprintf(&sb, "  %q [shape=house, style=filled, fillcolor=\"#fdb266\", label=%q];\n", id, label)
	}
	for _, r := range d.Relations {
		fmt.Fprintf(&sb, "  %q -> %q [label=%q, fontsize=8];\n", r.Subject, r.Object, string(r.Kind))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// nodeLabel shows the local name plus the provml type when present.
func nodeLabel(id prov.QName, attrs prov.Attrs) string {
	label := id.Local()
	if t, ok := attrs["prov:type"]; ok {
		label += "\n" + t.AsString()
	}
	return label
}

// ASCII renders a lineage tree rooted at the given node, following
// edges toward origins, depth-limited (maxDepth <= 0: unbounded). A node
// with relations of its own is expanded once, where the walk first
// reaches it with depth to spare; every later occurrence — a cycle
// back onto the path, or a node shared by two paths of a DAG — prints
// "..." instead. So the tree has at most one line per relation plus the
// root, however many paths the graph holds. A line deeper than
// asciiIndentLevels starts with its level number instead of an indent,
// so a line's length does not grow with the depth of a long chain.
func ASCII(d *prov.Document, root prov.QName, maxDepth int) string {
	adj := map[prov.QName][]edge{}
	for _, r := range d.Relations {
		adj[r.Subject] = append(adj[r.Subject], edge{kind: r.Kind, to: r.Object})
	}
	for _, list := range adj {
		sort.Slice(list, func(i, j int) bool {
			if list[i].to != list[j].to {
				return list[i].to < list[j].to
			}
			return list[i].kind < list[j].kind
		})
	}
	var sb strings.Builder
	// expanded marks the nodes whose children are printed. A node is
	// marked only when it is expanded, so one first met at the depth cap
	// is still expanded by a shallower path that reaches it later.
	expanded := map[prov.QName]bool{root: true}
	var walk func(n prov.QName, prefix string, depth int)
	walk = func(n prov.QName, prefix string, depth int) {
		if depth >= asciiIndentLevels {
			prefix = strconv.Itoa(depth+1) + " "
		}
		children := adj[n]
		for i, e := range children {
			connector := "├─"
			childPrefix := prefix + "│ "
			if i == len(children)-1 {
				connector = "└─"
				childPrefix = prefix + "  "
			}
			if expanded[e.to] {
				fmt.Fprintf(&sb, "%s%s[%s]→ %s ...\n", prefix, connector, e.kind, e.to)
				continue
			}
			fmt.Fprintf(&sb, "%s%s[%s]→ %s (%s)\n", prefix, connector, e.kind, e.to, d.NodeKind(e.to))
			if len(adj[e.to]) > 0 && (maxDepth <= 0 || depth+1 < maxDepth) {
				expanded[e.to] = true
				walk(e.to, childPrefix, depth+1)
			}
		}
	}
	fmt.Fprintf(&sb, "%s (%s)\n", root, d.NodeKind(root))
	walk(root, "", 0)
	return sb.String()
}

// asciiIndentLevels is the deepest level of an ASCII tree whose lines
// are indented; each level costs two columns.
const asciiIndentLevels = 32

type edge struct {
	kind prov.RelationKind
	to   prov.QName
}

// Summary produces a one-paragraph description of document contents,
// useful for CLI listings.
func Summary(d *prov.Document) string {
	st := d.Stats()
	counts := map[prov.RelationKind]int{}
	for _, r := range d.Relations {
		counts[r.Kind]++
	}
	var parts []string
	for _, k := range prov.AllRelationKinds {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
	}
	return fmt.Sprintf("entities=%d activities=%d agents=%d relations=%d (%s)",
		st.Entities, st.Activities, st.Agents, st.Relations, strings.Join(parts, ", "))
}
