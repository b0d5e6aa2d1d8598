// Package telemetry provides hardware telemetry collection for
// provenance tracking. Because this reproduction has no ROCm/CUDA
// counters available, samplers are deterministic simulations driven by a
// load signal: power follows utilization between configurable idle and
// peak wattage with seeded pseudo-random jitter, and energy is obtained
// by trapezoidal integration of power over time. The Sampler interface
// is the plugin point the paper's §2 "additional data collection tools
// via plugins" maps onto.
package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Reading is one sampled metric value.
type Reading struct {
	Metric string
	Value  float64
}

// Sampler produces readings at a simulated instant. The load argument in
// [0,1] expresses how busy the sampled device is at that instant.
type Sampler interface {
	// Name identifies the sampler (used as a provenance agent suffix).
	Name() string
	// Sample appends the readings at elapsed time t under the given
	// load to dst and returns the extended slice.
	Sample(dst []Reading, t time.Duration, load float64) []Reading
}

// GPUSpec describes the simulated accelerator.
type GPUSpec struct {
	Name      string
	IdleWatts float64
	PeakWatts float64
	MemGB     float64
	// CommWatts is the power draw while stalled on communication; real
	// accelerators do not drop to idle during allreduce.
	CommWatts float64
}

// MI250XGCD approximates one Graphics Compute Die of an AMD Instinct
// MI250X as deployed on Frontier (two GCDs per card, each ~280 W board
// share, 64 GB HBM2e).
func MI250XGCD() GPUSpec {
	return GPUSpec{Name: "MI250X-GCD", IdleWatts: 90, PeakWatts: 560, MemGB: 64, CommWatts: 310}
}

// Watts maps a utilization in [0,1] to instantaneous power draw.
func (s GPUSpec) Watts(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	// Blend: fully idle below zero load; communication-stalled power is
	// the floor once any work is in flight.
	base := s.IdleWatts
	if util > 0 {
		base = s.CommWatts
	}
	return base + (s.PeakWatts-base)*util
}

// GPUSampler simulates one GPU's counters.
type GPUSampler struct {
	Spec  GPUSpec
	Index int
	rng   *rand.Rand
	// MemUsedGB is the resident memory the workload claims.
	MemUsedGB float64
	// names are the metric names of Sample's readings, built once.
	names [4]string
}

// NewGPUSampler builds a deterministic sampler for GPU index.
func NewGPUSampler(spec GPUSpec, index int, seed int64) *GPUSampler {
	g := &GPUSampler{Spec: spec, Index: index, rng: rand.New(rand.NewSource(seed + int64(index)*7919))}
	prefix := g.Name()
	g.names = [4]string{prefix + "_util", prefix + "_power_w", prefix + "_mem_gb", prefix + "_temp_c"}
	return g
}

// Name implements Sampler.
func (g *GPUSampler) Name() string { return fmt.Sprintf("gpu%d", g.Index) }

// Sample implements Sampler. Jitter is ±2% on power and utilization.
func (g *GPUSampler) Sample(dst []Reading, t time.Duration, load float64) []Reading {
	jitter := 1 + 0.02*(2*g.rng.Float64()-1)
	util := clamp01(load * jitter)
	power := g.Spec.Watts(util)
	temp := 35 + 55*util + 2*math.Sin(t.Seconds()/30)
	return append(dst,
		Reading{g.names[0], util},
		Reading{g.names[1], power},
		Reading{g.names[2], math.Min(g.MemUsedGB, g.Spec.MemGB)},
		Reading{g.names[3], temp},
	)
}

// CPUSampler simulates host CPU counters.
type CPUSampler struct {
	IdleWatts float64
	PeakWatts float64
	rng       *rand.Rand
}

// NewCPUSampler builds a deterministic CPU sampler.
func NewCPUSampler(seed int64) *CPUSampler {
	return &CPUSampler{IdleWatts: 70, PeakWatts: 280, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Sampler.
func (c *CPUSampler) Name() string { return "cpu" }

// Sample implements Sampler. Host load tracks ~30% of device load.
func (c *CPUSampler) Sample(dst []Reading, t time.Duration, load float64) []Reading {
	util := clamp01(0.1 + 0.3*load + 0.05*c.rng.Float64())
	return append(dst,
		Reading{"cpu_util", util},
		Reading{"cpu_power_w", c.IdleWatts + (c.PeakWatts-c.IdleWatts)*util},
	)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// EnergyMeter integrates power samples into joules using the trapezoid
// rule over irregular timestamps.
type EnergyMeter struct {
	lastT     time.Duration
	lastW     float64
	hasSample bool
	joules    float64
}

// Observe records an instantaneous power reading at elapsed time t.
// Samples must arrive in non-decreasing time order.
func (m *EnergyMeter) Observe(t time.Duration, watts float64) error {
	if m.hasSample {
		if t < m.lastT {
			return fmt.Errorf("telemetry: out-of-order sample at %v (last %v)", t, m.lastT)
		}
		dt := (t - m.lastT).Seconds()
		m.joules += dt * (watts + m.lastW) / 2
	}
	m.lastT, m.lastW, m.hasSample = t, watts, true
	return nil
}

// Joules returns the accumulated energy.
func (m *EnergyMeter) Joules() float64 { return m.joules }

// LoadFunc gives the device load at elapsed time t.
type LoadFunc func(t time.Duration) float64

// ConstantLoad returns a LoadFunc pinned at l.
func ConstantLoad(l float64) LoadFunc {
	return func(time.Duration) float64 { return l }
}
