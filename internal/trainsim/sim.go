package trainsim

import (
	"fmt"
	"math/rand"
	"time"
)

// TrainSpec configures one simulated DDP training run of the scaling
// study: fixed dataset, fixed epochs, fixed global batch (strong
// scaling), a hard walltime limit, and a seed controlling metric jitter.
type TrainSpec struct {
	Model       ModelConfig
	Cluster     ClusterConfig
	Dataset     DatasetSpec
	Epochs      int
	GlobalBatch int
	// Walltime aborts the run when exceeded (zero = unlimited).
	Walltime time.Duration
	Seed     int64
}

// PaperSpec returns the spec used throughout the Figure 3 reproduction:
// 3 epochs over the 800k-patch corpus at global batch 256 under the
// 2-hour walltime limit of the paper's job allocations.
func PaperSpec(family Family, size string, gpus int) (TrainSpec, error) {
	model, err := NewModel(family, size)
	if err != nil {
		return TrainSpec{}, err
	}
	return TrainSpec{
		Model:       model,
		Cluster:     FrontierLike(gpus),
		Dataset:     MODISLike(),
		Epochs:      3,
		GlobalBatch: 256,
		Walltime:    2 * time.Hour,
		Seed:        1,
	}, nil
}

// EpochStats records one epoch of the simulated run.
type EpochStats struct {
	Index       int
	Steps       int
	Loss        float64
	Time        time.Duration
	EnergyJ     float64
	SamplesSeen int
	GPUUtil     float64
	PowerWatts  float64 // mean per-GPU draw
}

// StepProfile is the per-step time breakdown.
type StepProfile struct {
	ComputeSeconds   float64
	AllreduceSeconds float64
	StepSeconds      float64
	Utilization      float64
}

// Result is the outcome of a simulated run.
type Result struct {
	Spec        TrainSpec
	Profile     StepProfile
	Epochs      []EpochStats
	FinalLoss   float64
	TotalTime   time.Duration
	TotalEnergy float64 // joules across all GPUs
	SamplesSeen int
	Truncated   bool // hit the walltime limit before finishing
}

// EnergyLossProduct is the Figure 3 metric: final loss times total GPU
// energy (in kilojoules, to keep magnitudes readable).
func (r Result) EnergyLossProduct() float64 {
	return r.FinalLoss * r.TotalEnergy / 1e3
}

// Profile computes the steady-state per-step time breakdown for a spec.
func (s TrainSpec) ProfileStep() StepProfile {
	flopsPerStep := s.Model.FlopsPerSample() * float64(s.GlobalBatch)
	compute := s.Cluster.ComputeSeconds(flopsPerStep)
	comm := s.Cluster.AllreduceSeconds(s.Model.GradBytes())
	step := compute + comm
	return StepProfile{
		ComputeSeconds:   compute,
		AllreduceSeconds: comm,
		StepSeconds:      step,
		Utilization:      compute / step,
	}
}

// Validate checks the spec.
func (s TrainSpec) Validate() error {
	if err := s.Cluster.Validate(); err != nil {
		return err
	}
	if err := s.Dataset.Validate(); err != nil {
		return err
	}
	if s.Epochs <= 0 {
		return fmt.Errorf("trainsim: epochs must be positive, got %d", s.Epochs)
	}
	if s.GlobalBatch <= 0 {
		return fmt.Errorf("trainsim: global batch must be positive, got %d", s.GlobalBatch)
	}
	if s.Model.Params <= 0 {
		return fmt.Errorf("trainsim: model has no parameters")
	}
	return nil
}

// Run executes the simulation. It is deterministic for a given spec.
func (s TrainSpec) Run() (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	law, err := LawFor(s.Model.Family)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	profile := s.ProfileStep()
	stepsPerEpoch := (s.Dataset.Patches + s.GlobalBatch - 1) / s.GlobalBatch
	watts := s.Cluster.GPU.Watts(profile.Utilization)

	res := Result{Spec: s, Profile: profile}
	var elapsed time.Duration
	var energy float64
	samples := 0

	for e := 0; e < s.Epochs; e++ {
		epochSteps := stepsPerEpoch
		epochTime := time.Duration(float64(epochSteps) * profile.StepSeconds * float64(time.Second))
		truncatedEpoch := false
		if s.Walltime > 0 && elapsed+epochTime > s.Walltime {
			// Partial epoch until the limit, then the job is killed.
			remaining := s.Walltime - elapsed
			frac := remaining.Seconds() / epochTime.Seconds()
			epochSteps = int(float64(epochSteps) * frac)
			epochTime = remaining
			truncatedEpoch = true
		}
		samples += epochSteps * s.GlobalBatch
		tokens := float64(samples) * float64(s.Model.TokensPerSample)
		// Mid-training noise decays as the run stabilizes.
		noise := 1 + 0.01*rng.NormFloat64()/float64(e+1)
		loss := law.Loss(s.Model.Params, tokens) * noise
		epochEnergy := watts * float64(s.Cluster.GPUs) * epochTime.Seconds()

		elapsed += epochTime
		energy += epochEnergy
		res.Epochs = append(res.Epochs, EpochStats{
			Index:       e,
			Steps:       epochSteps,
			Loss:        loss,
			Time:        epochTime,
			EnergyJ:     epochEnergy,
			SamplesSeen: samples,
			GPUUtil:     profile.Utilization,
			PowerWatts:  watts,
		})
		res.FinalLoss = loss
		if truncatedEpoch {
			res.Truncated = true
			break
		}
	}
	res.TotalTime = elapsed
	res.TotalEnergy = energy
	res.SamplesSeen = samples
	return res, nil
}
