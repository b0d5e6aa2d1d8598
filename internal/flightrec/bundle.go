package flightrec

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/pprof"
	"time"
)

// Bundle is a frozen diagnostic snapshot: everything the recorder
// retained at the moment a trigger fired, plus a metrics exposition
// and a goroutine dump. It marshals to a single self-contained JSON
// document — the unit yprov-debug fetches and SIGQUIT dumps to disk.
type Bundle struct {
	Reason       string                  `json:"reason"`
	FrozenAt     time.Time               `json:"frozen_at"`
	Requests     uint64                  `json:"requests_seen"`
	Records      uint64                  `json:"records_retained"`
	NumGoroutine int                     `json:"num_goroutine"`
	Config       json.RawMessage         `json:"config,omitempty"`
	Traces       []*Completed            `json:"traces"`
	SlowLog      map[string][]*Completed `json:"slowlog"`
	Runtime      []RuntimeSample         `json:"runtime"`
	Metrics      string                  `json:"metrics,omitempty"`
	Goroutines   string                  `json:"goroutines,omitempty"`
}

// Capture builds a bundle from the recorder's current state without
// retaining it and without cooldown — the on-demand path (SIGQUIT,
// explicit fetch). Returns nil on a nil recorder.
func (r *Recorder) Capture(reason string) *Bundle {
	if r == nil {
		return nil
	}
	b := &Bundle{
		Reason:   reason,
		FrozenAt: time.Now(),
		// Records before Requests: a request is counted before it is
		// recorded, so read in this order the two cannot show more
		// records than requests however many arrive meanwhile.
		Records:      r.recorded.Value(),
		Requests:     r.reqCtr.Load(),
		NumGoroutine: runtime.NumGoroutine(),
		Traces:       r.Traces(0),
		SlowLog:      r.SlowLog(),
		Runtime:      r.rt.Window(),
	}
	r.configMu.Lock()
	if len(r.config) > 0 {
		b.Config = append(json.RawMessage(nil), r.config...)
	}
	r.configMu.Unlock()
	if r.reg != nil {
		var buf bytes.Buffer
		r.reg.WritePrometheus(&buf)
		b.Metrics = buf.String()
	}
	if p := pprof.Lookup("goroutine"); p != nil {
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 1); err == nil {
			b.Goroutines = buf.String()
		}
	}
	return b
}

// Freeze captures a bundle for an anomaly trigger and retains it,
// subject to the per-kind cooldown. Returns the bundle, or nil when
// the freeze was suppressed.
func (r *Recorder) Freeze(kind, detail string) *Bundle {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.freezeMu.Lock()
	if last, ok := r.lastFreeze[kind]; ok && now.Sub(last) < r.cfg.FreezeCooldown {
		r.freezeMu.Unlock()
		return nil
	}
	r.lastFreeze[kind] = now
	r.freezeMu.Unlock()

	reason := kind
	if detail != "" {
		reason += ": " + detail
	}
	b := r.Capture(reason)
	r.latest.Store(b)
	r.freezes.Inc()
	if r.cfg.Logf != nil {
		r.cfg.Logf("flightrec: froze diagnostic bundle: %s (traces=%d slow_routes=%d)",
			reason, len(b.Traces), len(b.SlowLog))
	}
	return b
}

// Frozen returns the most recently frozen bundle, or nil.
func (r *Recorder) Frozen() *Bundle {
	if r == nil {
		return nil
	}
	return r.latest.Load()
}
