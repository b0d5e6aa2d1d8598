package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Shape of one simulated training run (the paper's workload).
const (
	trainEpochs   = 4
	trainSteps    = 250 // per epoch
	trainGPUs     = 2
	trainIDSpace  = 8 // upload ids per client: run-<client>-<n mod 8>; the warm-up fills them all
	trainLogCalls = trainEpochs * trainSteps * 2
)

var trainEpoch0 = time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)

// trainPhases times the parts of one train_run operation.
type trainPhases struct {
	log, collect time.Duration // LogMetric and CollectOnce calls, summed
	loop         time.Duration // StartRun up to End: the instrumented loop
	end          time.Duration // End: Zarr + prov.json + prov.provn
}

// trainOutput is what one run leaves behind.
type trainOutput struct {
	runID     string
	provJSON  []byte
	zarrBytes int64 // only measured with phases
}

// simulateRun drives one training run through the yProv4ML library:
// 8 parameters, an input dataset, a 2-GPU telemetry collector, 4
// epochs of 250 steps logging two metrics and one collector sweep
// each, a validation metric per epoch, an output model, and End
// writing prov.json and the Zarr store under dir. Every value derives
// from seed. With phases non-nil the per-call costs are timed too,
// which the probe pass uses and the timed loop does not.
func simulateRun(dir, expName, runName string, seed int64, phases *trainPhases) (trainOutput, error) {
	var out trainOutput
	start := time.Now()
	exp := core.NewExperiment(expName, core.WithDir(dir), core.WithUser("bench"))
	run := exp.StartRun(runName, core.WithStorage(core.StorageZarr),
		core.WithClock(core.NewSimClock(trainEpoch0, time.Second)))
	out.runID = run.ID
	params := []struct {
		name  string
		value interface{}
	}{
		{"learning_rate", 3e-4 * float64(1+seed%7)}, {"batch_size", 64}, {"optimizer", "adamw"},
		{"weight_decay", 0.01}, {"warmup_steps", 100}, {"seed", seed}, {"precision", "bf16"}, {"layers", 12},
	}
	for _, p := range params {
		if err := run.LogParam(p.name, p.value); err != nil {
			return out, err
		}
	}
	if _, err := run.LogArtifactRef("training-data", "data/train.bin", "file", 1<<30, core.AsInput()); err != nil {
		return out, err
	}
	run.RegisterCollector(core.NewGPUFleetCollector(trainGPUs, seed, telemetry.ConstantLoad(0.85)))
	step := int64(0)
	for epoch := 0; epoch < trainEpochs; epoch++ {
		if err := run.StartEpoch(metrics.Training, epoch); err != nil {
			return out, err
		}
		for i := 0; i < trainSteps; i++ {
			loss := 2.0/math.Sqrt(float64(step+1)) + 1e-3*float64(seed%97)
			var t0, t1 time.Time
			if phases != nil {
				t0 = time.Now()
			}
			err := run.LogMetric("loss", metrics.Training, step, loss)
			if err == nil {
				err = run.LogMetric("accuracy", metrics.Training, step, 1-loss/3)
			}
			if phases != nil {
				t1 = time.Now()
				phases.log += t1.Sub(t0)
			}
			if err == nil {
				err = run.CollectOnce(step)
			}
			if phases != nil {
				phases.collect += time.Since(t1)
			}
			if err != nil {
				return out, err
			}
			step++
		}
		if err := run.EndEpoch(metrics.Training); err != nil {
			return out, err
		}
		if err := run.StartEpoch(metrics.Validation, epoch); err != nil {
			return out, err
		}
		if err := run.LogMetric("val_loss", metrics.Validation, int64(epoch), 2.1/math.Sqrt(float64(step))); err != nil {
			return out, err
		}
		if err := run.EndEpoch(metrics.Validation); err != nil {
			return out, err
		}
	}
	if _, err := run.LogModel("model", 125_000_000, 500<<20); err != nil {
		return out, err
	}
	endStart := time.Now()
	res, err := run.End()
	if err != nil {
		return out, err
	}
	if phases != nil {
		phases.loop += endStart.Sub(start)
		phases.end += time.Since(endStart)
	}
	out.provJSON = res.ProvJSON
	if phases != nil {
		for _, p := range res.MetricPaths {
			n, err := dirBytes(p)
			if err != nil {
				return out, err
			}
			out.zarrBytes += n
		}
	}
	return out, nil
}

// A client's runs all belong to one experiment, so they share one run
// id (<experiment>_run1, every operation starts a fresh Experiment) and
// overwrite each other's files: the output directory does not grow
// during the window, and no time goes into creating and deleting
// hundreds of files per operation. What tells two runs apart is the
// run name, which lands in the document as the run activity's
// provml:name.
func trainExp(c int) string        { return fmt.Sprintf("bench_c%d", c) }
func trainRunName(c, n int) string { return fmt.Sprintf("op-%d-%d", c, n) }

// checkRun fetches the document stored under id and checks that it is
// the n-th run of client c.
func checkRun(conn *conn, id string, c, n int) error {
	r, err := conn.get("/api/v0/documents/" + id)
	if err != nil {
		return err
	}
	var doc struct {
		Activity map[string]map[string]interface{} `json:"activity"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return fmt.Errorf("%s: %v", id, err)
	}
	if got, want := doc.Activity["ex:"+trainExp(c)+"_run1"]["provml:name"], trainRunName(c, n); got != want {
		return fmt.Errorf("%s holds run %v, acknowledged %s", id, got, want)
	}
	return nil
}

// trainDocID is the id the n-th run of client c is uploaded under; the
// id space is fixed, so later runs replace earlier ones.
func trainDocID(c, n int) string { return fmt.Sprintf("run-%d-%d", c, n%trainIDSpace) }

// trainDir is where client c's runs write their files.
func trainDir(work string, c int) (string, error) {
	dir := filepath.Join(work, fmt.Sprintf("train-%d", c))
	return dir, os.MkdirAll(dir, 0o755)
}
