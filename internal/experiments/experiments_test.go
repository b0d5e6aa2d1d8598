package experiments

import (
	"strings"
	"testing"

	"repro/internal/prov"
	"repro/internal/trainsim"
)

func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	jsonRow, zarrRow, ncRow := res.Rows[0], res.Rows[1], res.Rows[2]
	if jsonRow.File != "Original_file.json" {
		t.Errorf("row0 = %q", jsonRow.File)
	}
	// The paper's headline: binary offloads are >90% smaller.
	if res.ReductionPct < 90 {
		t.Errorf("reduction = %.1f%%, paper reports >90%%", res.ReductionPct)
	}
	// Compression helps each format (or at least does not hurt).
	for _, row := range res.Rows {
		if row.CompressedBytes > row.NormalBytes {
			t.Errorf("%s: compressed %d > normal %d", row.File, row.CompressedBytes, row.NormalBytes)
		}
	}
	// Ordering as in the paper: JSON >> zarr, nc.
	if zarrRow.NormalBytes >= jsonRow.NormalBytes/8 {
		t.Errorf("zarr %d not far below json %d", zarrRow.NormalBytes, jsonRow.NormalBytes)
	}
	if ncRow.NormalBytes >= jsonRow.NormalBytes/5 {
		t.Errorf("nc %d not far below json %d", ncRow.NormalBytes, jsonRow.NormalBytes)
	}
	// 138726 B is what this collection's Zarr store took before chunks
	// were byte-shuffled and sized to the series; the row must not grow.
	if zarrRow.NormalBytes > 138726 {
		t.Errorf("zarr normal size %d B, was 138726 B", zarrRow.NormalBytes)
	}
	out := RenderTable1(res)
	for _, want := range []string{"Original_file.json", "Converted_to.zarr", "Converted_to.nc", "Normal Size", "Compressed Size"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable1Deterministic(t *testing.T) {
	a, err := RunTable1(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable1(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	verified := 0
	for _, r := range rows {
		if r.Verified {
			verified++
		}
	}
	if verified < 4 {
		t.Errorf("only %d rows verified against the implementation", verified)
	}
	out := RenderTable2(rows)
	for _, want := range []string{"Serialization", "PROV-JSON", "JSON-LD", "Packaging", "Use in yProv4ML"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure1(t *testing.T) {
	res, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Doc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Multiple contexts present.
	ctxCount := 0
	for _, id := range res.Doc.ActivityIDs() {
		if v, ok := res.Doc.Activities[id].Attrs["prov:type"]; ok && v.AsString() == "provml:Context" {
			ctxCount++
		}
	}
	if ctxCount < 3 {
		t.Errorf("contexts = %d, want >= 3 (training/validation/testing)", ctxCount)
	}
	// Inputs via used, outputs via wasGeneratedBy (Figure 1's caption).
	if len(relationsOfKind(res.Doc, prov.RelUsed)) < 2 {
		t.Error("expected used edges for input artifacts")
	}
	if len(relationsOfKind(res.Doc, prov.RelWasGeneratedBy)) < 2 {
		t.Error("expected wasGeneratedBy edges for outputs")
	}
	if !strings.Contains(res.DOT, "digraph provenance") {
		t.Error("DOT output broken")
	}
	if len(res.ProvJSON) == 0 || !strings.Contains(string(res.ProvJSON), "wasGeneratedBy") {
		t.Error("PROV-JSON payload broken")
	}
	if res.ASCII == "" {
		t.Error("ASCII rendering empty")
	}
}

func TestFigure3GridShape(t *testing.T) {
	res, err := RunFigure3(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grids) != 2 {
		t.Fatalf("grids = %d", len(res.Grids))
	}
	var mae, swin Figure3Grid
	for _, g := range res.Grids {
		switch g.Family {
		case trainsim.MaskedAutoencoder:
			mae = g
		case trainsim.SwinTransformerV2:
			swin = g
		}
	}
	// Paper empty cells: SwinV2-1B at 8 and 16 GPUs only.
	for _, size := range trainsim.PaperSizes() {
		for _, g := range GPUCounts {
			wantTrunc := size == "1B" && g <= 16
			if got := swin.Cells[size][g].Truncated; got != wantTrunc {
				t.Errorf("SwinV2-%s@%d truncated=%v want %v", size, g, got, wantTrunc)
			}
			if mae.Cells[size][g].Truncated {
				t.Errorf("MAE-%s@%d should not truncate", size, g)
			}
		}
	}
	// SwinV2 wins at scale (lower metric at 128 GPUs).
	for _, size := range []string{"200M", "600M", "1B"} {
		if swin.Cells[size][128].Metric >= mae.Cells[size][128].Metric {
			t.Errorf("SwinV2-%s@128 (%v) must beat MAE (%v)",
				size, swin.Cells[size][128].Metric, mae.Cells[size][128].Metric)
		}
	}
	out := RenderFigure3(res)
	if !strings.Contains(out, "--") || !strings.Contains(out, "MaskedAutoencoder") {
		t.Errorf("render broken:\n%s", out)
	}
}

func TestFigure3Instrumented(t *testing.T) {
	res, err := RunFigure3(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProvDocsJSON) != 40 {
		t.Fatalf("prov docs = %d, want 40", len(res.ProvDocsJSON))
	}
	// Every produced document must parse and validate.
	for id, payload := range res.ProvDocsJSON {
		doc, err := prov.ParseJSON(payload)
		if err != nil {
			t.Fatalf("doc %s: %v", id, err)
		}
		if _, err := doc.Validate(); err != nil {
			t.Fatalf("doc %s invalid: %v", id, err)
		}
	}
}

// relationsOfKind returns the relations of d of the given kind, in the
// document's order.
func relationsOfKind(d *prov.Document, kind prov.RelationKind) []*prov.Relation {
	var out []*prov.Relation
	for _, r := range d.Relations {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}
