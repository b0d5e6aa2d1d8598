package core

import (
	"time"

	"repro/internal/telemetry"
)

// TelemetryCollector adapts telemetry samplers into run collectors,
// driving them with a load function.
type TelemetryCollector struct {
	Label    string
	Samplers []telemetry.Sampler
	Load     telemetry.LoadFunc
}

// Name implements Collector.
func (t *TelemetryCollector) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return "telemetry"
}

// Collect implements Collector.
func (t *TelemetryCollector) Collect(elapsed time.Duration) []telemetry.Reading {
	load := 1.0
	if t.Load != nil {
		load = t.Load(elapsed)
	}
	// Every sampler appends to one output, sized for four readings
	// each: what a GPU sampler writes, and twice a CPU sampler's.
	out := make([]telemetry.Reading, 0, 4*len(t.Samplers))
	for _, s := range t.Samplers {
		out = s.Sample(out, elapsed, load)
	}
	return out
}

// NewGPUFleetCollector builds a collector simulating gpus accelerators
// under the given load profile.
func NewGPUFleetCollector(gpus int, seed int64, load telemetry.LoadFunc) *TelemetryCollector {
	samplers := make([]telemetry.Sampler, 0, gpus+1)
	for i := 0; i < gpus; i++ {
		samplers = append(samplers, telemetry.NewGPUSampler(telemetry.MI250XGCD(), i, seed))
	}
	samplers = append(samplers, telemetry.NewCPUSampler(seed))
	return &TelemetryCollector{Label: "hw", Samplers: samplers, Load: load}
}
