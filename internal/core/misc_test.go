package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestDirectionString(t *testing.T) {
	if Input.String() != "input" || Output.String() != "output" {
		t.Errorf("direction strings: %s %s", Input, Output)
	}
}

func TestMetricStorageString(t *testing.T) {
	cases := map[MetricStorage]string{
		StorageInline: "inline-json",
		StorageZarr:   "zarr",
		StorageNetCDF: "netcdf",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s, want)
		}
	}
}

func TestArtifactInContext(t *testing.T) {
	r := simRun(t)
	if err := r.StartEpoch(metrics.Validation, 0); err != nil {
		t.Fatal(err)
	}
	a, err := r.LogArtifactRef("val-report", "reports/val.json", "file", 100, InContext(metrics.Validation))
	if err != nil {
		t.Fatal(err)
	}
	if a.Context != metrics.Validation {
		t.Errorf("artifact context = %q", a.Context)
	}
	doc, err := r.BuildProv(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Generated by the VALIDATION context activity, not the run.
	target := r.qContext(metrics.Validation)
	found := false
	for _, rel := range relationsOfKind(doc, "wasGeneratedBy") {
		if rel.Subject == r.qArtifact(a) && rel.Object == target {
			found = true
		}
	}
	if !found {
		t.Error("artifact not attached to its context activity")
	}
}

func TestParamLookupMissing(t *testing.T) {
	r := simRun(t)
	if _, ok := r.Param("ghost"); ok {
		t.Error("missing param must not be found")
	}
	if err := r.LogParam("p", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.LogParam("p", 2); err != nil {
		t.Fatal(err)
	}
	v, ok := r.Param("p")
	if !ok {
		t.Fatal("param missing")
	}
	if i, _ := v.AsInt(); i != 2 {
		t.Errorf("latest value = %d, want 2", i)
	}
}

func TestRunStartTime(t *testing.T) {
	base := time.Date(2025, 7, 1, 0, 0, 0, 0, time.UTC)
	exp := NewExperiment("t")
	r := exp.StartRun("r", WithClock(NewSimClock(base, time.Second)))
	if !r.started.Equal(base) {
		t.Errorf("start = %v", r.started)
	}
}

func TestEndWithoutDirProducesNoPaths(t *testing.T) {
	r := simRun(t) // experiment has no Dir
	if err := r.LogMetric("m", metrics.Training, 0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := r.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvJSONPath != "" || res.ProvNPath != "" || len(res.MetricPaths) != 0 {
		t.Errorf("paths should be empty without a dir: %+v", res)
	}
	if len(res.ProvJSON) == 0 {
		t.Error("payload must still be returned")
	}
}
