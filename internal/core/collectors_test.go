package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// TestCollectOnceStampsTrainingEpoch: a telemetry reading belongs to the
// open TRAINING epoch, as a LogMetric of the same step does.
func TestCollectOnceStampsTrainingEpoch(t *testing.T) {
	r := simRun(t)
	r.RegisterCollector(NewGPUFleetCollector(1, 3, telemetry.ConstantLoad(0.5)))
	step := int64(0)
	for epoch := 0; epoch < 3; epoch++ {
		if err := r.StartEpoch(metrics.Training, epoch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := r.LogMetric("loss", metrics.Training, step, 1/float64(step+1)); err != nil {
				t.Fatal(err)
			}
			if err := r.CollectOnce(step); err != nil {
				t.Fatal(err)
			}
			step++
		}
		if err := r.EndEpoch(metrics.Training); err != nil {
			t.Fatal(err)
		}
	}
	loss, _ := seriesOf(r.metrics, "loss", metrics.Training)
	for _, name := range []string{"hw_gpu0_util", "hw_cpu_power_w"} {
		hw, ok := seriesOf(r.metrics, name, metrics.Training)
		if !ok || hw.Len() != loss.Len() {
			t.Fatalf("%s: %d points, want %d", name, hw.Len(), loss.Len())
		}
		for i := range hw.Len() {
			if p := hw.At(i); p.Epoch != loss.At(i).Epoch {
				t.Errorf("%s step %d: epoch %d, loss has %d", name, p.Step, p.Epoch, loss.At(i).Epoch)
			}
		}
	}
}

// TestCollectOnceAllocs: at steady state one CollectOnce of a two-GPU
// fleet allocates the collector's output, which every sampler appends
// to, and nothing per sampler or per reading.
func TestCollectOnceAllocs(t *testing.T) {
	r := simRun(t)
	r.RegisterCollector(NewGPUFleetCollector(2, 7, telemetry.ConstantLoad(0.8)))
	step := int64(0)
	allocs := testing.AllocsPerRun(500, func() {
		if err := r.CollectOnce(step); err != nil {
			t.Fatal(err)
		}
		step++
	})
	t.Logf("CollectOnce: %.2f allocations per call", allocs)
	if allocs > 1 {
		t.Errorf("CollectOnce allocates %.0f times per call, want <= 1", allocs)
	}
}

// TestCollectOnceConcurrent runs CollectOnce beside RegisterCollector
// and LogMetric; run with -race.
func TestCollectOnceConcurrent(t *testing.T) {
	r := simRun(t)
	r.RegisterCollector(NewGPUFleetCollector(1, 1, telemetry.ConstantLoad(0.5)))
	const steps = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			if err := r.CollectOnce(int64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			r.RegisterCollector(&TelemetryCollector{Label: fmt.Sprintf("cpu%d", i), Samplers: []telemetry.Sampler{telemetry.NewCPUSampler(int64(i))}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			if err := r.LogMetric("loss", metrics.Training, int64(i), float64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := r.CollectOnce(steps); err != nil {
		t.Fatal(err)
	}
	if s, _ := seriesOf(r.metrics, "hw_gpu0_util", metrics.Training); s.Len() != steps+1 {
		t.Errorf("hw_gpu0_util: %d points, want %d", s.Len(), steps+1)
	}
	if s, _ := seriesOf(r.metrics, "cpu3_cpu_util", metrics.Training); s.Len() < 1 {
		t.Error("a collector registered mid-run was never sampled")
	}
}
