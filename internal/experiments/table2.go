package experiments

import (
	"fmt"
	"strings"

	"repro/internal/prov"
	"repro/internal/rocrate"
)

// Table2Row is one feature row of the W3C PROV vs RO-Crate comparison.
type Table2Row struct {
	Feature string
	Prov    string
	ROCrate string
	// Verified reports whether the claim was checked against the actual
	// implementations in this repository (rather than merely stated).
	Verified bool
}

// RunTable2 reproduces Table 2. Where possible each row is *verified*
// against the repository's own prov and rocrate packages: the
// serializations row round-trips a document through PROV-JSON and
// PROV-N, and the packaging row wraps files into a crate and validates
// the descriptor.
func RunTable2() ([]Table2Row, error) {
	rows := []Table2Row{
		{Feature: "Type", Prov: "Provenance data model", ROCrate: "Research object packaging format"},
		{Feature: "Standardized By", Prov: "W3C", ROCrate: "Community-driven"},
	}

	// Verify PROV serializations: PROV-JSON round-trip + PROV-N output.
	doc := prov.NewDocument()
	doc.AddEntity("ex:e", prov.Attrs{"prov:type": prov.Str("provml:Artifact")})
	doc.AddActivity("ex:a", nil)
	doc.WasGeneratedBy("ex:e", "ex:a", doc.Activities["ex:a"].StartTime)
	payload, err := doc.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("table2: PROV-JSON serialization failed: %w", err)
	}
	back, err := prov.ParseJSON(payload)
	if err != nil || !back.Equal(doc) {
		return nil, fmt.Errorf("table2: PROV-JSON round-trip failed: %v", err)
	}
	provN := doc.ProvN()
	serOK := strings.Contains(provN, "document") && strings.Contains(provN, "wasGeneratedBy")
	// PROV-O: Turtle round-trip.
	ttlBack, err := prov.ParseTurtle(doc.Turtle())
	if err != nil || !ttlBack.Equal(doc) {
		return nil, fmt.Errorf("table2: PROV-O Turtle round-trip failed: %v", err)
	}
	rows = append(rows, Table2Row{
		Feature: "Serialization", Prov: "PROV-N, PROV-JSON, PROV-O (RDF)", ROCrate: "JSON-LD", Verified: serOK,
	})

	// Verify RO-Crate packaging + JSON-LD.
	crate := rocrate.New("verification", "table 2 check")
	crate.AddFileData("prov.json", payload, "provenance")
	meta, err := crate.Metadata()
	if err != nil {
		return nil, fmt.Errorf("table2: crate metadata failed: %w", err)
	}
	crateOK := rocrate.Validate(meta) == nil && strings.Contains(string(meta), "@context")
	rows = append(rows,
		Table2Row{Feature: "Focus", Prov: "Provenance representation", ROCrate: "Sharing and describing research artifacts"},
		Table2Row{Feature: "Packaging", Prov: "No", ROCrate: "Yes", Verified: crateOK},
		Table2Row{Feature: "Domain-Agnostic", Prov: "Yes", ROCrate: "Can be"},
		Table2Row{Feature: "Use of W3C PROV", Prov: "Native", ROCrate: "Optional (via PROV-O)", Verified: crateOK},
		Table2Row{Feature: "Use in yProv4ML", Prov: "Tracking of provenance", ROCrate: "Packaging of artifacts", Verified: serOK && crateOK},
	)
	return rows, nil
}

// RenderTable2 formats the matrix like the paper's Table 2.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: W3C PROV vs RO-Crate\n")
	fmt.Fprintf(&sb, "%-18s %-28s %-38s %s\n", "Feature", "W3C PROV", "RO-Crate", "verified")
	for _, r := range rows {
		mark := ""
		if r.Verified {
			mark = "yes"
		}
		fmt.Fprintf(&sb, "%-18s %-28s %-38s %s\n", r.Feature, r.Prov, r.ROCrate, mark)
	}
	return sb.String()
}
