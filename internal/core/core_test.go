package core

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/prov"
	"repro/internal/telemetry"
	"repro/internal/zarr"
)

// seriesOf returns the Snapshot view of the named series of c.
func seriesOf(c *metrics.Collection, name string, ctx metrics.Context) (metrics.Series, bool) {
	for _, s := range c.Snapshot() {
		if s.Name == name && s.Context == ctx {
			return s, true
		}
	}
	return metrics.Series{}, false
}

func simRun(t testing.TB, opts ...RunOption) *Run {
	t.Helper()
	exp := NewExperiment("modis-fm", WithUser("alice"))
	base := time.Date(2025, 5, 1, 8, 0, 0, 0, time.UTC)
	all := append([]RunOption{WithClock(NewSimClock(base, time.Second))}, opts...)
	return exp.StartRun("scaling-probe", all...)
}

func TestRunIDsUnique(t *testing.T) {
	exp := NewExperiment("e")
	a := exp.StartRun("r1")
	b := exp.StartRun("r2")
	if a.ID == b.ID {
		t.Fatalf("duplicate run ids %q", a.ID)
	}
	if n := exp.runCount(); n != 2 {
		t.Fatalf("runs = %d", n)
	}
}

func TestLogParamTypes(t *testing.T) {
	r := simRun(t)
	cases := map[string]interface{}{
		"lr":       0.001,
		"batch":    256,
		"arch":     "vit",
		"masked":   true,
		"duration": 3 * time.Second,
		"when":     time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for k, v := range cases {
		if err := r.LogParam(k, v); err != nil {
			t.Fatalf("LogParam(%s): %v", k, err)
		}
	}
	if err := r.LogParam("bad", []int{1}); err == nil {
		t.Error("unsupported type must fail")
	}
	v, ok := r.Param("lr")
	if !ok {
		t.Fatal("lr missing")
	}
	if f, _ := v.AsFloat(); f != 0.001 {
		t.Errorf("lr = %v", f)
	}
	if len(r.ParamNames()) != 6 {
		t.Errorf("params = %v", r.ParamNames())
	}
}

func TestLogMetricEpochTagging(t *testing.T) {
	r := simRun(t)
	if err := r.StartEpoch(metrics.Training, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.LogMetric("loss", metrics.Training, 1, 2.0); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(metrics.Training); err != nil {
		t.Fatal(err)
	}
	if err := r.StartEpoch(metrics.Training, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.LogMetric("loss", metrics.Training, 2, 1.5); err != nil {
		t.Fatal(err)
	}
	s, _ := seriesOf(r.metrics, "loss", metrics.Training)
	if s.At(0).Epoch != 0 || s.At(1).Epoch != 1 {
		t.Errorf("epoch tags = %v, %v", s.At(0).Epoch, s.At(1).Epoch)
	}
}

func TestEpochLifecycleErrors(t *testing.T) {
	r := simRun(t)
	if err := r.EndEpoch(metrics.Training); err == nil {
		t.Error("EndEpoch without StartEpoch must fail")
	}
	if err := r.StartEpoch(metrics.Training, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.StartEpoch(metrics.Training, 1); err == nil {
		t.Error("double StartEpoch must fail")
	}
}

func TestEndClosesOpenEpochs(t *testing.T) {
	r := simRun(t)
	if err := r.StartEpoch(metrics.Validation, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.End(); err != nil {
		t.Fatal(err)
	}
	eps := r.epochs[metrics.Validation]
	if len(eps) != 1 || eps[0].Duration <= 0 {
		t.Fatalf("epochs = %+v", eps)
	}
}

func TestLoggingAfterEndFails(t *testing.T) {
	r := simRun(t)
	if _, err := r.End(); err != nil {
		t.Fatal(err)
	}
	if err := r.LogParam("x", 1); err == nil {
		t.Error("LogParam after End must fail")
	}
	if err := r.LogMetric("m", metrics.Training, 0, 1); err == nil {
		t.Error("LogMetric after End must fail")
	}
	if _, err := r.End(); err == nil {
		t.Error("double End must fail")
	}
	if !r.ended {
		t.Error("the run is not marked ended")
	}
}

func TestBuildProvTopology(t *testing.T) {
	r := simRun(t)
	mustNoErr := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustNoErr(r.LogParam("lr", 0.001))
	mustNoErr(r.LogParam("final_accuracy", 0.91, func(s *logSettings) { s.direction = Output }))
	_, err := r.LogArtifactRef("modis-patches", "data/modis", "file", 1<<30, AsInput())
	mustNoErr(err)
	_, err = r.LogModel("vit-100m", 100_000_000, 4<<20)
	mustNoErr(err)
	mustNoErr(r.StartEpoch(metrics.Training, 0))
	mustNoErr(r.LogMetric("loss", metrics.Training, 0, 2.3))
	mustNoErr(r.EndEpoch(metrics.Training))
	mustNoErr(r.LogMetric("val_loss", metrics.Validation, 0, 2.5))

	doc, err := r.BuildProv(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Validate(); err != nil {
		t.Fatal(err)
	}

	// Figure 2 topology: experiment entity, run + 2 contexts + 1 epoch.
	if doc.NodeKind(r.qExperiment()) != "entity" {
		t.Error("experiment entity missing")
	}
	if doc.NodeKind(r.qRun()) != "activity" {
		t.Error("run activity missing")
	}
	for _, ctx := range []metrics.Context{metrics.Training, metrics.Validation} {
		if doc.NodeKind(r.qContext(ctx)) != "activity" {
			t.Errorf("context %s missing", ctx)
		}
	}
	if doc.NodeKind(r.qEpoch(metrics.Training, 0)) != "activity" {
		t.Error("epoch activity missing")
	}
	// Input artifact used, model generated.
	usedSomething := false
	for _, rel := range relationsOfKind(doc, prov.RelUsed) {
		if rel.Object == prov.NewQName("ex", r.ID+"_artifact_modis-patches") {
			usedSomething = true
		}
	}
	if !usedSomething {
		t.Error("input artifact not linked with used")
	}
	genModel := false
	for _, rel := range relationsOfKind(doc, prov.RelWasGeneratedBy) {
		if rel.Subject == prov.NewQName("ex", r.ID+"_artifact_vit-100m") {
			genModel = true
		}
	}
	if !genModel {
		t.Error("model artifact not linked with wasGeneratedBy")
	}
	// Derivation output <- input.
	if len(relationsOfKind(doc, prov.RelWasDerivedFrom)) == 0 {
		t.Error("missing derivation edges")
	}
	// Agents: user + library with delegation.
	if len(doc.AgentIDs()) != 2 {
		t.Errorf("agents = %v", doc.AgentIDs())
	}
	if len(relationsOfKind(doc, prov.RelActedOnBehalfOf)) != 1 {
		t.Error("library must act on behalf of the user")
	}
}

func TestEndWritesFiles(t *testing.T) {
	dir := t.TempDir()
	exp := NewExperiment("modis-fm", WithDir(dir), WithUser("alice"))
	r := exp.StartRun("r", WithClock(NewSimClock(time.Date(2025, 5, 1, 0, 0, 0, 0, time.UTC), time.Second)), WithStorage(StorageZarr))
	if err := r.LogParam("lr", 0.01); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := r.LogMetric("loss", metrics.Training, int64(i), 2.0/float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvJSONPath == "" {
		t.Fatal("no prov.json written")
	}
	payload, err := os.ReadFile(res.ProvJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := prov.ParseJSON(payload)
	if err != nil {
		t.Fatalf("written prov.json unparsable: %v", err)
	}
	if _, err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Metric entity references the zarr offload, not inline points.
	found := false
	for _, id := range doc.EntityIDs() {
		e := doc.Entities[id]
		if v, ok := e.Attrs["provml:storage"]; ok && strings.HasPrefix(v.AsString(), "zarr:") {
			found = true
		}
	}
	if !found {
		t.Error("no zarr storage reference in document")
	}
	if len(res.MetricPaths) == 0 {
		t.Error("no metric paths reported")
	}
	if _, err := os.Stat(res.ProvNPath); err != nil {
		t.Errorf("prov.provn missing: %v", err)
	}
}

func TestEndInlineStorage(t *testing.T) {
	r := simRun(t, WithStorage(StorageInline))
	if err := r.LogMetric("loss", metrics.Training, 0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := r.End()
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(res.ProvJSON, &top); err != nil {
		t.Fatal(err)
	}
	if res.DocStats.Entities == 0 || res.DocStats.Activities == 0 {
		t.Errorf("doc stats = %+v", res.DocStats)
	}
}

func TestEndNetCDFStorage(t *testing.T) {
	dir := t.TempDir()
	exp := NewExperiment("e", WithDir(dir))
	r := exp.StartRun("r", WithClock(NewSimClock(time.Unix(0, 0), time.Second)), WithStorage(StorageNetCDF))
	for i := 0; i < 100; i++ {
		if err := r.LogMetric("loss", metrics.Training, int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MetricPaths) != 1 || !strings.HasSuffix(res.MetricPaths[0], "metrics.nc") {
		t.Fatalf("metric paths = %v", res.MetricPaths)
	}
	raw, err := os.ReadFile(res.MetricPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:3]) != "CDF" {
		t.Error("metrics.nc is not a CDF file")
	}
}

// TestEndFailsWhenZarrStoreCannotBeCreated: metrics that cannot reach
// <dir>/<run-id>/metrics.zarr fail End; they are not flushed into memory
// and referenced from a prov.json that outlives them. What is in the way
// here is a directory store, as a run from before metrics.zarr became one
// archive left it: End names the path and leaves the store alone.
func TestEndFailsWhenZarrStoreCannotBeCreated(t *testing.T) {
	dir := t.TempDir()
	exp := NewExperiment("e", WithDir(dir))
	r := exp.StartRun("r", WithClock(NewSimClock(time.Unix(0, 0), time.Second)), WithStorage(StorageZarr))
	runDir := filepath.Join(dir, r.ID)
	old := filepath.Join(runDir, "metrics.zarr", "TRAINING", "loss", "value", ".zarray")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("an old store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.LogMetric("loss", metrics.Training, 0, 1); err != nil {
		t.Fatal(err)
	}
	_, err := r.End()
	if err == nil {
		t.Fatal("End succeeded with nowhere to put the metrics")
	}
	if !strings.Contains(err.Error(), filepath.Join(runDir, "metrics.zarr")) {
		t.Errorf("error %q does not name the store", err)
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "an old store" {
		t.Errorf("the old store was touched: %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(runDir, "prov.json")); !os.IsNotExist(err) {
		t.Errorf("prov.json written despite the failure (stat: %v)", err)
	}
}

// TestEndWritesOneArchive: a Zarr run leaves metrics.zarr as one file
// beside prov.json and prov.provn, a zip archive whose members are the
// keys a MemStore flush of the same metrics produces, stored, byte for
// byte; ending the same run again over the directory leaves one file.
func TestEndWritesOneArchive(t *testing.T) {
	dir := t.TempDir()
	var res EndResult
	var r *Run
	for i := 0; i < 2; i++ {
		exp := NewExperiment("e", WithDir(dir))
		r = exp.StartRun("r", WithClock(NewSimClock(time.Unix(0, 0), time.Second)), WithStorage(StorageZarr))
		for step := int64(0); step < 300; step++ {
			if err := r.LogMetric("loss", metrics.Training, step, 1/float64(step+1)); err != nil {
				t.Fatal(err)
			}
			if err := r.LogMetric("acc", metrics.Training, step, float64(step)/300); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.LogMetric("val/loss", metrics.Validation, 0, 0.5); err != nil {
			t.Fatal(err)
		}
		var err error
		if res, err = r.End(); err != nil {
			t.Fatal(err)
		}
		if len(res.MetricPaths) != 1 {
			t.Fatalf("metric paths = %v", res.MetricPaths)
		}
		entries, err := os.ReadDir(filepath.Dir(res.MetricPaths[0]))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			if !e.Type().IsRegular() {
				t.Errorf("%s is not a regular file", e.Name())
			}
			names = append(names, e.Name())
		}
		if got := strings.Join(names, " "); got != "metrics.zarr prov.json prov.provn" {
			t.Fatalf("End #%d left %q", i+1, got)
		}
	}

	want := zarr.NewMemStore()
	if _, err := (&metrics.ZarrSink{Store: want}).Flush(r.metrics); err != nil {
		t.Fatal(err)
	}
	keys, err := want.List("")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.OpenReader(res.MetricPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	if len(zr.File) != len(keys) {
		t.Fatalf("%d members, want %d", len(zr.File), len(keys))
	}
	for i, f := range zr.File {
		if f.Name != keys[i] || f.Method != zip.Store {
			t.Fatalf("member %d: %q method %d, want %q stored", i, f.Name, f.Method, keys[i])
		}
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := want.Get(f.Name); !bytes.Equal(got, v) {
			t.Errorf("member %q differs from the MemStore flush", f.Name)
		}
	}
}

func TestCollectors(t *testing.T) {
	r := simRun(t)
	r.RegisterCollector(NewGPUFleetCollector(2, 7, func(time.Duration) float64 { return 0.8 }))
	r.RegisterCollector(&TelemetryCollector{Label: "cpu", Samplers: []telemetry.Sampler{telemetry.NewCPUSampler(3)}})
	for i := 0; i < 10; i++ {
		if err := r.CollectOnce(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.EnergyJoules() <= 0 {
		t.Error("energy must accumulate from power readings")
	}
	if _, ok := seriesOf(r.metrics, "hw_gpu0_power_w", metrics.Training); !ok {
		t.Error("gpu power metric missing")
	}
	if _, ok := seriesOf(r.metrics, "cpu_cpu_util", metrics.Training); !ok {
		t.Error("cpu metric missing")
	}
}

func TestCollectOnceAfterEnd(t *testing.T) {
	r := simRun(t)
	r.RegisterCollector(&TelemetryCollector{Label: "cpu", Samplers: []telemetry.Sampler{telemetry.NewCPUSampler(3)}})
	if _, err := r.End(); err != nil {
		t.Fatal(err)
	}
	if err := r.CollectOnce(0); err == nil {
		t.Error("CollectOnce after End must fail")
	}
}

func TestConcurrentLoggingRace(t *testing.T) {
	r := simRun(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = r.LogMetric("loss", metrics.Training, int64(i), float64(i))
				_ = r.LogParam("p", i)
			}
		}(w)
	}
	wg.Wait()
	if r.metrics.TotalPoints() != 400 {
		t.Errorf("points = %d", r.metrics.TotalPoints())
	}
	if _, err := r.End(); err != nil {
		t.Fatal(err)
	}
}

func TestSimClock(t *testing.T) {
	c := NewSimClock(time.Unix(100, 0), time.Second)
	a := c.Now()
	b := c.Now()
	if !b.After(a) || b.Sub(a) != time.Second {
		t.Errorf("ticks: %v then %v", a, b)
	}
}

// Param returns a logged parameter's latest value; ParamNames lists the
// logged names in log order. The library reads parameters only when it
// builds the document, so these lookups live with the tests.
func (r *Run) Param(name string) (prov.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.params) - 1; i >= 0; i-- {
		if r.params[i].name == name {
			return r.params[i].value, true
		}
	}
	return prov.Value{}, false
}

func (r *Run) ParamNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.params))
	for i, p := range r.params {
		out[i] = p.name
	}
	return out
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
