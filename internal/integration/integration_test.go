// Package integration exercises the full yProv ecosystem end to end:
// instrumented training -> PROV-JSON on disk with Zarr metric offload
// -> upload to the yProv service -> lineage/search queries -> RO-Crate
// packaging -> single-file reproduction, as the paper's ecosystem
// figure describes.
package integration

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/prov"
	"repro/internal/provclient"
	"repro/internal/provgraph"
	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/reproduce"
	"repro/internal/rocrate"
	"repro/internal/trainsim"
	"repro/internal/workflow"
	"repro/internal/zarr"
)

// trackSimulatedRun runs the simulator and records it through yProv4ML
// with metrics offloaded to disk.
func trackSimulatedRun(t *testing.T, dir string) (*core.Run, core.EndResult, trainsim.Result) {
	t.Helper()
	spec, err := trainsim.PaperSpec(trainsim.MaskedAutoencoder, "200M", 32)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	exp := core.NewExperiment("integration", core.WithDir(dir), core.WithUser("it"))
	run := exp.StartRun("sim", core.WithClock(core.NewSimClock(time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC), time.Second)), core.WithStorage(core.StorageZarr))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(run.LogParam("family", string(spec.Model.Family)))
	must(run.LogParam("model_params", spec.Model.Params))
	must(run.LogParam("gpus", spec.Cluster.GPUs))
	must(run.LogParam("global_batch", spec.GlobalBatch))
	must(run.LogParam("epochs", spec.Epochs))
	must(run.LogParam("patches", spec.Dataset.Patches))
	_, err = run.LogArtifactRef("modis", "data/modis", "file", int64(spec.Dataset.Patches)*int64(spec.Dataset.PatchDim)*int64(spec.Dataset.PatchDim)*int64(spec.Dataset.Channels)*4, core.AsInput())
	must(err)
	for _, ep := range simRes.Epochs {
		must(run.StartEpoch(metrics.Training, ep.Index))
		must(run.LogMetric("loss", metrics.Training, int64(ep.Index), ep.Loss))
		must(run.LogMetric("energy_kj", metrics.Training, int64(ep.Index), ep.EnergyJ/1e3))
		must(run.EndEpoch(metrics.Training))
	}
	_, err = run.LogModel("mae-200m", spec.Model.Params, 800<<20)
	must(err)
	endRes, err := run.End()
	must(err)
	return run, endRes, simRes
}

func TestFullPipeline(t *testing.T) {
	dir := t.TempDir()
	run, endRes, simRes := trackSimulatedRun(t, dir)

	// 1. Files on disk: prov.json parses, metrics read back from zarr.
	raw, err := os.ReadFile(endRes.ProvJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := prov.ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	store, err := zarr.OpenZip(endRes.MetricPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	series, err := metrics.LoadZarrSeries(store, "zarr:TRAINING/loss")
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != len(simRes.Epochs) {
		t.Fatalf("zarr round trip: %d != %d points", series.Len(), len(simRes.Epochs))
	}
	for i, ep := range simRes.Epochs {
		if p := series.At(i); p.Value != ep.Loss || p.Step != int64(ep.Index) {
			t.Fatalf("zarr round trip point %d: %+v, want loss %v at step %d", i, p, ep.Loss, ep.Index)
		}
	}

	// 2. Upload to the service, query lineage of the produced model.
	srv := httptest.NewServer(provservice.New(provstore.New()))
	defer srv.Close()
	client := provclient.New(srv.URL)
	if err := client.UploadRaw(run.ID, raw); err != nil {
		t.Fatal(err)
	}
	model := prov.NewQName("ex", run.ID+"_artifact_mae-200m")
	anc, err := client.Lineage(run.ID, model, provstore.Ancestors, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundInput := false
	for _, a := range anc {
		if a == prov.NewQName("ex", run.ID+"_artifact_modis") {
			foundInput = true
		}
	}
	if !foundInput {
		t.Errorf("model lineage does not reach the input dataset: %v", anc)
	}

	// 3. Cross-document search finds the run.
	hits, err := client.SearchByType("provml:Artifact")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) < 2 {
		t.Errorf("search hits = %v", hits)
	}

	// 4. RO-Crate wrap of the run directory validates.
	crate, err := rocrate.WrapDirectory(filepath.Join(dir, run.ID), "integration run", "e2e")
	if err != nil {
		t.Fatal(err)
	}
	if crate.ProvDocument != "prov.json" {
		t.Errorf("crate prov link = %q", crate.ProvDocument)
	}
	meta, err := os.ReadFile(filepath.Join(dir, run.ID, rocrate.MetadataFilename))
	if err != nil {
		t.Fatal(err)
	}
	if err := rocrate.Validate(meta); err != nil {
		t.Fatal(err)
	}

	// 5. Single-file reproduction from the downloaded document.
	fetched, err := client.Get(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := reproduce.Extract(fetched)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := reproduce.Rerun(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Errorf("reproduction mismatch: %+v", rep)
	}

	// 6. Explorer renderings work on the fetched document.
	if !strings.Contains(provgraph.DOT(fetched), "digraph") {
		t.Error("DOT rendering broken")
	}
}

func TestWorkflowServicePairing(t *testing.T) {
	srv := httptest.NewServer(provservice.New(provstore.New()))
	defer srv.Close()
	client := provclient.New(srv.URL)

	exp := core.NewExperiment("wf-int")
	var runID string
	wf := workflow.New("int-pipeline").
		MustAdd(workflow.Task{Name: "train", Fn: func(tc *workflow.TaskContext) error {
			run := exp.StartRun("inner", core.WithClock(core.NewSimClock(time.Unix(0, 0), time.Second)), core.WithStorage(core.StorageInline))
			if err := run.LogMetric("loss", metrics.Training, 0, 1.0); err != nil {
				return err
			}
			res, err := run.End()
			if err != nil {
				return err
			}
			if err := client.UploadRaw(run.ID, res.ProvJSON); err != nil {
				return err
			}
			runID = run.ID
			tc.LinkRunDocument(run.ID)
			tc.RecordOutput("model")
			return nil
		}})
	res, err := wf.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	wfDoc, err := workflow.BuildProv(wf, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Upload("wf", wfDoc); err != nil {
		t.Fatal(err)
	}

	// Both levels visible in one service; the pairing entity carries the
	// run-document id, which resolves to an uploaded document.
	ids, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("documents = %v", ids)
	}
	hits, err := client.SearchByType("yprov:RunDocument")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != "wf" {
		t.Fatalf("pairing hits = %v", hits)
	}
	if _, err := client.Get(runID); err != nil {
		t.Errorf("paired run document unreachable: %v", err)
	}
}

func TestFigure1DocThroughService(t *testing.T) {
	fig, err := experiments.RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(provservice.New(provstore.New()))
	defer srv.Close()
	client := provclient.New(srv.URL)
	if err := client.UploadRaw("figure1", fig.ProvJSON); err != nil {
		t.Fatal(err)
	}
	back, err := client.Get("figure1")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(fig.Doc) {
		t.Error("figure 1 document changed through the service")
	}
}
