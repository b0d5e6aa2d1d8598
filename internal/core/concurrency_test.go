package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestConcurrentLogMetricAndBuildProv hammers the logging hot path from
// data-parallel workers while provenance documents are generated
// concurrently — the access pattern the sharded metric collection and
// the run's read-locked fast path exist for — and while the experiment
// starts other runs, whose count each document reports. Run with -race.
func TestConcurrentLogMetricAndBuildProv(t *testing.T) {
	exp := NewExperiment("conc")
	run := exp.StartRun("r",
		WithClock(NewSimClock(time.Unix(0, 0), time.Microsecond)),
		WithStorage(StorageInline))

	const (
		workers          = 8
		pointsPerWorker  = 500
		builders         = 2
		buildsPerBuilder = 20
		otherRuns        = 50
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < otherRuns; i++ {
			exp.StartRun("other")
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("loss_rank%d", w%4)
			ctx := metrics.Training
			if w%2 == 1 {
				ctx = metrics.Validation
			}
			for i := 0; i < pointsPerWorker; i++ {
				if err := run.LogMetric(name, ctx, int64(i), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < buildsPerBuilder; i++ {
				if _, err := run.BuildProv(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := run.metrics.TotalPoints(); got != workers*pointsPerWorker {
		t.Fatalf("TotalPoints = %d, want %d", got, workers*pointsPerWorker)
	}
	doc, err := run.BuildProv(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Validate(); err != nil {
		t.Fatalf("final document invalid: %v", err)
	}
	if n, _ := doc.Entities[run.qExperiment()].Attrs["provml:n_runs"].AsInt(); n != 1+otherRuns {
		t.Fatalf("provml:n_runs = %d, want %d", n, 1+otherRuns)
	}
}

// TestConcurrentCollectionLog checks the striped collection directly:
// concurrent writers on disjoint and shared series, with readers
// snapshotting mid-flight.
func TestConcurrentCollectionLog(t *testing.T) {
	c := metrics.NewCollection()
	const workers = 8
	const points = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < points; i++ {
				c.Log(fmt.Sprintf("m%d", w%3), metrics.Training, metrics.Point{Step: int64(i), Value: float64(i)})
				if i%97 == 0 {
					c.Snapshot()
					c.TotalPoints()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.TotalPoints(); got != workers*points {
		t.Fatalf("TotalPoints = %d, want %d", got, workers*points)
	}
	keys := c.Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys = %v, want 3 series", keys)
	}
	sum := 0
	for _, s := range c.Snapshot() {
		sum += s.Len()
	}
	if sum != workers*points {
		t.Fatalf("Snapshot points = %d, want %d", sum, workers*points)
	}
}
