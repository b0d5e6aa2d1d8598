package workflow

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prov"
)

func ok(*TaskContext) error { return nil }

func TestLinearPipeline(t *testing.T) {
	var order []string
	rec := func(name string) Func {
		return func(tc *TaskContext) error {
			order = append(order, name) // safe: linear chain serializes
			return nil
		}
	}
	w := New("pipe").
		MustAdd(Task{Name: "a", Fn: rec("a")}).
		MustAdd(Task{Name: "b", Deps: []string{"a"}, Fn: rec("b")}).
		MustAdd(Task{Name: "c", Deps: []string{"b"}, Fn: rec("c")})
	res, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded() {
		t.Fatal("workflow should succeed")
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Errorf("order = %v", order)
	}
}

func TestParallelFanOut(t *testing.T) {
	var running, peak int64
	body := func(*TaskContext) error {
		cur := atomic.AddInt64(&running, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt64(&running, -1)
		return nil
	}
	w := New("fan")
	w.MustAdd(Task{Name: "root", Fn: ok})
	for i := 0; i < 6; i++ {
		w.MustAdd(Task{Name: fmt.Sprintf("leaf%d", i), Deps: []string{"root"}, Fn: body})
	}
	res, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded() {
		t.Fatal("should succeed")
	}
	if atomic.LoadInt64(&peak) < 2 {
		t.Errorf("expected parallel execution, peak = %d", peak)
	}
}

func TestMaxParallelRespected(t *testing.T) {
	var running, peak int64
	body := func(*TaskContext) error {
		cur := atomic.AddInt64(&running, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt64(&running, -1)
		return nil
	}
	w := New("bounded")
	for i := 0; i < 8; i++ {
		w.MustAdd(Task{Name: fmt.Sprintf("t%d", i), Fn: body})
	}
	if _, err := w.Run(2); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&peak) > 2 {
		t.Errorf("parallelism exceeded bound: %d", peak)
	}
}

func TestFailurePropagation(t *testing.T) {
	w := New("fail").
		MustAdd(Task{Name: "good", Fn: ok}).
		MustAdd(Task{Name: "bad", Fn: func(*TaskContext) error { return fmt.Errorf("boom") }}).
		MustAdd(Task{Name: "child", Deps: []string{"bad"}, Fn: ok}).
		MustAdd(Task{Name: "grandchild", Deps: []string{"child"}, Fn: ok}).
		MustAdd(Task{Name: "independent", Deps: []string{"good"}, Fn: ok})
	res, err := w.Run(0)
	if err == nil {
		t.Fatal("run must report the failure")
	}
	if res.Tasks["bad"].Status != Failed {
		t.Error("bad should be Failed")
	}
	if res.Tasks["child"].Status != Skipped || res.Tasks["grandchild"].Status != Skipped {
		t.Error("descendants of failure must be Skipped")
	}
	if res.Tasks["independent"].Status != Succeeded {
		t.Error("independent branch must still run")
	}
	if res.Succeeded() {
		t.Error("Succeeded() must be false")
	}
}

func TestCycleDetection(t *testing.T) {
	w := New("cycle").
		MustAdd(Task{Name: "a", Deps: []string{"b"}, Fn: ok}).
		MustAdd(Task{Name: "b", Deps: []string{"a"}, Fn: ok})
	if _, err := w.Run(0); err == nil {
		t.Fatal("cycle must be detected")
	}
}

func TestUnknownDependency(t *testing.T) {
	w := New("dangling").MustAdd(Task{Name: "a", Deps: []string{"ghost"}, Fn: ok})
	if _, err := w.Run(0); err == nil {
		t.Fatal("unknown dependency must fail")
	}
}

func TestAddValidation(t *testing.T) {
	w := New("v")
	if err := w.Add(Task{Name: "", Fn: ok}); err == nil {
		t.Error("empty name must fail")
	}
	if err := w.Add(Task{Name: "x"}); err == nil {
		t.Error("nil fn must fail")
	}
	if err := w.Add(Task{Name: "x", Fn: ok}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Task{Name: "x", Fn: ok}); err == nil {
		t.Error("duplicate must fail")
	}
}

func TestTaskContextRecording(t *testing.T) {
	w := New("ctx").MustAdd(Task{Name: "train", Fn: func(tc *TaskContext) error {
		tc.RecordInput("dataset")
		tc.RecordOutput("model")
		tc.SetParam("lr", "0.001")
		tc.LinkRunDocument("modis_run1")
		return nil
	}})
	res, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks["train"]
	if len(tr.Inputs) != 1 || len(tr.Outputs) != 1 || tr.Params["lr"] != "0.001" || tr.RunDocID != "modis_run1" {
		t.Errorf("task result = %+v", tr)
	}
}

func TestBuildProv(t *testing.T) {
	w := New("ml-pipeline").
		MustAdd(Task{Name: "prep", Fn: func(tc *TaskContext) error {
			tc.RecordInput("raw")
			tc.RecordOutput("curated")
			return nil
		}}).
		MustAdd(Task{Name: "train", Deps: []string{"prep"}, Fn: func(tc *TaskContext) error {
			tc.RecordInput("curated")
			tc.RecordOutput("model")
			tc.LinkRunDocument("run_42")
			return nil
		}})
	res, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := BuildProv(w, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	st := doc.Stats()
	// wf + 2 tasks activities; raw, curated, model, rundoc entities.
	if st.Activities != 3 || st.Entities != 4 || st.Agents != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The shared "curated" artifact must be one entity used and generated.
	if doc.NodeKind("ex:artifact_curated") != "entity" {
		t.Error("curated artifact missing")
	}
	// Lineage: model's ancestors must include both tasks and raw.
	ix, _, err := prov.IndexBinary(prov.AppendBinary(nil, doc))
	if err != nil {
		t.Fatal(err)
	}
	anc, _ := ix.Reach("ex:artifact_model", prov.Forward, 0)
	found := map[prov.QName]bool{}
	for _, a := range anc {
		found[a] = true
	}
	for _, want := range []prov.QName{"ex:task_train", "ex:task_prep", "ex:artifact_raw", "ex:artifact_curated"} {
		if !found[want] {
			t.Errorf("lineage missing %s (got %v)", want, anc)
		}
	}
}

func TestRetriesEventualSuccess(t *testing.T) {
	var calls int32
	w := New("retry").MustAdd(Task{
		Name:    "flaky",
		Retries: 3,
		Fn: func(*TaskContext) error {
			if atomic.AddInt32(&calls, 1) < 3 {
				return fmt.Errorf("transient")
			}
			return nil
		},
	})
	res, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks["flaky"]
	if tr.Status != Succeeded || tr.Attempts != 3 {
		t.Fatalf("result = %+v", tr)
	}
}

func TestRetriesExhausted(t *testing.T) {
	w := New("retry").MustAdd(Task{
		Name:    "hopeless",
		Retries: 2,
		Fn:      func(*TaskContext) error { return fmt.Errorf("always") },
	})
	res, err := w.Run(0)
	if err == nil {
		t.Fatal("exhausted retries must fail the run")
	}
	if res.Tasks["hopeless"].Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Tasks["hopeless"].Attempts)
	}
}

func TestTaskTimeout(t *testing.T) {
	w := New("slow").MustAdd(Task{
		Name:    "sleeper",
		Timeout: 20 * time.Millisecond,
		Fn: func(*TaskContext) error {
			time.Sleep(500 * time.Millisecond)
			return nil
		},
	})
	start := time.Now()
	res, err := w.Run(0)
	if err == nil {
		t.Fatal("timeout must fail the task")
	}
	if time.Since(start) > 300*time.Millisecond {
		t.Error("workflow waited past the timeout")
	}
	if res.Tasks["sleeper"].Status != Failed {
		t.Errorf("status = %v", res.Tasks["sleeper"].Status)
	}
}

func TestBuildProvFailedTask(t *testing.T) {
	w := New("f").MustAdd(Task{Name: "bad", Fn: func(*TaskContext) error { return fmt.Errorf("kaput") }})
	res, _ := w.Run(0)
	doc, err := BuildProv(w, res)
	if err != nil {
		t.Fatal(err)
	}
	a := doc.Activities["ex:task_bad"]
	if a == nil {
		t.Fatal("task activity missing")
	}
	if a.Attrs["yprov:status"].AsString() != "failed" {
		t.Errorf("status attr = %v", a.Attrs["yprov:status"])
	}
	if a.Attrs["yprov:error"].AsString() != "kaput" {
		t.Errorf("error attr = %v", a.Attrs["yprov:error"])
	}
}
