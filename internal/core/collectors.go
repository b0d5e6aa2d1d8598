package core

import (
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/telemetry"
)

// TelemetryCollector adapts telemetry samplers into run collectors,
// driving them with a load function (e.g. trainsim.Result.LoadProfile).
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
	// Sample first and size the output once; the parts of a fleet of up
	// to eight samplers stay on the stack.
	var buf [8][]telemetry.Reading
	parts := buf[:0]
	n := 0
	for _, s := range t.Samplers {
		part := s.Sample(elapsed, load)
		parts = append(parts, part)
		n += len(part)
	}
	out := make([]telemetry.Reading, 0, n)
	for _, part := range parts {
		out = append(out, part...)
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

// RuntimeCollector reports Go runtime statistics of the tracking process
// itself — the library's own overhead, which the paper argues must stay
// minimal. It reads runtime/metrics, which, unlike runtime.ReadMemStats,
// does not stop the world.
type RuntimeCollector struct{}

// runtimeSamples are the runtime/metrics a RuntimeCollector reads, in
// the order of its readings.
var runtimeSamples = [...]struct {
	metric string
	name   string
	scale  float64
}{
	{"heap_alloc_mb", "/memory/classes/heap/objects:bytes", 1 << 20},
	{"total_alloc_mb", "/gc/heap/allocs:bytes", 1 << 20},
	{"num_gc", "/gc/cycles/total:gc-cycles", 1},
	{"goroutines", "/sched/goroutines:goroutines", 1},
}

// Name implements Collector.
func (RuntimeCollector) Name() string { return "goruntime" }

// Collect implements Collector.
func (RuntimeCollector) Collect(time.Duration) []telemetry.Reading {
	var samples [len(runtimeSamples)]rtmetrics.Sample
	for i, s := range runtimeSamples {
		samples[i].Name = s.name
	}
	rtmetrics.Read(samples[:])
	out := make([]telemetry.Reading, len(samples))
	for i, s := range runtimeSamples {
		out[i] = telemetry.Reading{Metric: s.metric, Value: float64(samples[i].Value.Uint64()) / s.scale}
	}
	return out
}
