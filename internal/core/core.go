// Package core implements yProv4ML, the paper's provenance collection
// library for machine-learning training. It exposes MLflow-style
// logging calls (parameters, metrics, artifacts) organized by the
// Figure 2 data model — Experiment -> Run Execution -> Context
// (TRAINING / VALIDATION / TESTING / user-defined) -> Epoch — and emits
// W3C PROV documents in PROV-JSON, with bulky metric time series
// offloaded to Zarr- or NetCDF-style files (Table 1) and artifacts
// optionally packaged as an RO-Crate.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/prov"
	"repro/internal/telemetry"
)

// Direction marks logged data as an input to the run (a dependency that
// must exist to reproduce it) or an output it generated. The reworked
// input/output relationships of the paper's §4 map inputs to "used" and
// outputs to "wasGeneratedBy" edges.
type Direction int

// Directions.
const (
	Output Direction = iota // default
	Input
)

func (d Direction) String() string {
	if d == Input {
		return "input"
	}
	return "output"
}

// Clock abstracts time for deterministic tests and simulations.
type Clock interface {
	Now() time.Time
}

// WallClock uses the real time.Now.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now().UTC() }

// SimClock advances a fixed step on every call, giving fully
// deterministic timestamps.
type SimClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

// NewSimClock starts at start and advances by step per Now call.
func NewSimClock(start time.Time, step time.Duration) *SimClock {
	return &SimClock{t: start.UTC(), step: step}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

// MetricStorage selects where metric time series are persisted.
type MetricStorage int

// Storage backends (Table 1 compares these).
const (
	StorageInline MetricStorage = iota
	StorageZarr
	StorageNetCDF
)

func (m MetricStorage) String() string {
	switch m {
	case StorageZarr:
		return "zarr"
	case StorageNetCDF:
		return "netcdf"
	default:
		return "inline-json"
	}
}

// Experiment groups related runs (Figure 2's core entity).
type Experiment struct {
	Name string
	Dir  string
	User string

	mu  sync.Mutex
	seq int // runs started so far; the last one's number
}

// ExperimentOption configures NewExperiment.
type ExperimentOption func(*Experiment)

// WithDir sets the artifact/provenance output directory.
func WithDir(dir string) ExperimentOption {
	return func(e *Experiment) { e.Dir = dir }
}

// WithUser records the researcher the runs are attributed to.
func WithUser(user string) ExperimentOption {
	return func(e *Experiment) { e.User = user }
}

// NewExperiment creates an experiment.
func NewExperiment(name string, opts ...ExperimentOption) *Experiment {
	e := &Experiment{Name: name, User: "researcher"}
	for _, o := range opts {
		o(e)
	}
	return e
}

// param is one logged parameter.
type param struct {
	name      string
	value     prov.Value
	direction Direction
	context   metrics.Context
}

// Artifact is a logged file or output reference.
type Artifact struct {
	Name      string
	Path      string
	SHA256    string
	SizeBytes int64
	Kind      string // "file", "model", "checkpoint", "source", "reference"
	Direction Direction
	Context   metrics.Context
	LoggedAt  time.Time
}

// Collector is the plugin interface for extra data sources (paper §1:
// "integrate additional data collection tools via plugins"). Readings
// are logged as metrics under the collector's name.
type Collector interface {
	// Name identifies the collector.
	Name() string
	// Collect returns readings for the elapsed run time.
	Collect(elapsed time.Duration) []telemetry.Reading
}

// Run is one Run Execution instance of an experiment.
type Run struct {
	ID   string
	Name string

	exp     *Experiment
	clock   Clock
	storage MetricStorage
	started time.Time

	mu         sync.RWMutex
	params     []param
	artifacts  []Artifact
	collectors []*collectorSlot
	contexts   map[metrics.Context]bool
	epochs     map[metrics.Context][]EpochRecord
	curEpoch   map[metrics.Context]*EpochRecord
	ended      bool
	endTime    time.Time

	metrics *metrics.Collection
	energy  map[string]*telemetry.EnergyMeter
}

// EpochRecord captures one epoch inside a context.
type EpochRecord struct {
	Index    int
	Start    time.Time
	End      time.Time
	Duration time.Duration
}

// RunOption configures StartRun.
type RunOption func(*Run)

// WithClock overrides the run clock (tests and simulations).
func WithClock(c Clock) RunOption {
	return func(r *Run) { r.clock = c }
}

// WithStorage selects the metric persistence backend.
func WithStorage(s MetricStorage) RunOption {
	return func(r *Run) { r.storage = s }
}

// StartRun begins a new run execution under the experiment.
func (e *Experiment) StartRun(name string, opts ...RunOption) *Run {
	e.mu.Lock()
	e.seq++
	id := fmt.Sprintf("%s_run%d", sanitizeID(e.Name), e.seq)
	e.mu.Unlock()

	r := &Run{
		ID:       id,
		Name:     name,
		exp:      e,
		clock:    WallClock{},
		storage:  StorageZarr,
		contexts: make(map[metrics.Context]bool),
		epochs:   make(map[metrics.Context][]EpochRecord),
		curEpoch: make(map[metrics.Context]*EpochRecord),
		metrics:  metrics.NewCollection(),
		energy:   make(map[string]*telemetry.EnergyMeter),
	}
	for _, o := range opts {
		o(r)
	}
	r.started = r.clock.Now()
	return r
}

// runCount is the number of runs started so far.
func (e *Experiment) runCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// LogOption modifies a single log call.
type LogOption func(*logSettings)

type logSettings struct {
	direction Direction
	context   metrics.Context
}

// AsInput marks the logged item as a run input ("used" in PROV).
func AsInput() LogOption {
	return func(s *logSettings) { s.direction = Input }
}

// InContext attaches the logged item to a specific context.
func InContext(ctx metrics.Context) LogOption {
	return func(s *logSettings) { s.context = ctx }
}

func applyOpts(opts []LogOption) logSettings {
	s := logSettings{direction: Output}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// LogParam records a one-time configuration value (learning rate, model
// size, ...). Parameters default to run inputs.
func (r *Run) LogParam(name string, value interface{}, opts ...LogOption) error {
	s := logSettings{direction: Input}
	for _, o := range opts {
		o(&s)
	}
	v, err := toProvValue(value)
	if err != nil {
		return fmt.Errorf("core: LogParam %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ended {
		return errEnded(r.ID)
	}
	r.params = append(r.params, param{name: name, value: v, direction: s.direction, context: s.context})
	return nil
}

// LogMetric appends one observation of a time-varying quantity in the
// given context at the given step. It is the logging hot path: the
// common case (context already registered) only read-locks the run, so
// data-parallel workers logging concurrently contend solely on the
// metric collection's lock stripe for their own series.
func (r *Run) LogMetric(name string, ctx metrics.Context, step int64, value float64) error {
	r.mu.RLock()
	ended := r.ended
	known := r.contexts[ctx]
	epoch := 0
	if cur := r.curEpoch[ctx]; cur != nil {
		epoch = cur.Index
	}
	r.mu.RUnlock()
	if ended {
		return errEnded(r.ID)
	}
	if !known {
		r.mu.Lock()
		if r.ended {
			r.mu.Unlock()
			return errEnded(r.ID)
		}
		r.contexts[ctx] = true
		r.mu.Unlock()
	}

	r.metrics.Log(name, ctx, metrics.Point{
		Step:  step,
		Epoch: epoch,
		Time:  r.clock.Now(),
		Value: value,
	})
	return nil
}

// StartEpoch opens epoch index within the context.
func (r *Run) StartEpoch(ctx metrics.Context, index int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ended {
		return errEnded(r.ID)
	}
	if r.curEpoch[ctx] != nil {
		return fmt.Errorf("core: epoch %d already open in %s", r.curEpoch[ctx].Index, ctx)
	}
	r.contexts[ctx] = true
	r.curEpoch[ctx] = &EpochRecord{Index: index, Start: r.clock.Now()}
	return nil
}

// EndEpoch closes the open epoch within the context.
func (r *Run) EndEpoch(ctx metrics.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.curEpoch[ctx]
	if cur == nil {
		return fmt.Errorf("core: no open epoch in %s", ctx)
	}
	cur.End = r.clock.Now()
	cur.Duration = cur.End.Sub(cur.Start)
	r.epochs[ctx] = append(r.epochs[ctx], *cur)
	r.curEpoch[ctx] = nil
	return nil
}

// LogArtifactRef records an artifact that is not a readable local file
// (a URI, an object-store key, a produced directory).
func (r *Run) LogArtifactRef(name, ref, kind string, sizeBytes int64, opts ...LogOption) (Artifact, error) {
	s := applyOpts(opts)
	if kind == "" {
		kind = "reference"
	}
	a := Artifact{
		Name:      name,
		Path:      ref,
		SizeBytes: sizeBytes,
		Kind:      kind,
		Direction: s.direction,
		Context:   s.context,
		LoggedAt:  r.clock.Now(),
	}
	return a, r.addArtifact(a)
}

// LogModel records a model version artifact (an output by definition).
func (r *Run) LogModel(name string, params int64, sizeBytes int64, opts ...LogOption) (Artifact, error) {
	s := applyOpts(opts)
	a := Artifact{
		Name:      name,
		Path:      fmt.Sprintf("models/%s.bin", sanitizeID(name)),
		SizeBytes: sizeBytes,
		Kind:      "model",
		Direction: s.direction,
		Context:   s.context,
		LoggedAt:  r.clock.Now(),
	}
	if err := r.addArtifact(a); err != nil {
		return Artifact{}, err
	}
	// Record the parameter count alongside the artifact.
	return a, r.logParamLocked(param{name: "model_params:" + name, value: prov.Int(params), direction: Output})
}

func (r *Run) logParamLocked(p param) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ended {
		return errEnded(r.ID)
	}
	r.params = append(r.params, p)
	return nil
}

func (r *Run) addArtifact(a Artifact) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ended {
		return errEnded(r.ID)
	}
	r.artifacts = append(r.artifacts, a)
	return nil
}

// RegisterCollector attaches a plugin collector to the run.
func (r *Run) RegisterCollector(c Collector) {
	slot := &collectorSlot{c: c, prefix: c.Name() + "_"}
	r.mu.Lock()
	r.collectors = append(r.collectors, slot)
	r.mu.Unlock()
}

// collectorSlot is a registered collector with, for each position of
// its readings, the series the reading there was last logged to. A
// collector reports the same metrics in the same order at every step,
// so a reading is logged through a handle found once per run, not
// through a name built, hashed and looked up once per step.
type collectorSlot struct {
	c      Collector
	prefix string // "<collector>_"
	mu     sync.Mutex
	at     []slotSeries // by reading position
}

// slotSeries is where the readings of one metric go.
type slotSeries struct {
	metric string // the reading's metric
	h      metrics.Handle
	meter  *telemetry.EnergyMeter // for a *_power_w metric, else nil
}

// series returns where a reading of metric at position i goes, finding
// it again only when the metric there is not the last one's.
func (s *collectorSlot) series(r *Run, i int, metric string) *slotSeries {
	if i == len(s.at) {
		s.at = append(s.at, slotSeries{})
	}
	ss := &s.at[i]
	if ss.metric != metric || ss.h == (metrics.Handle{}) {
		name := s.prefix + metric
		*ss = slotSeries{metric: metric, h: r.metrics.Handle(name, metrics.Training)}
		if isPowerMetric(metric) {
			ss.meter = r.energyMeter(name)
		}
	}
	return ss
}

// CollectOnce samples every registered collector at the current elapsed
// time, logging readings as TRAINING-context metrics named
// "<collector>_<metric>" in the open TRAINING epoch and integrating
// *_power_w readings into energy.
func (r *Run) CollectOnce(step int64) error {
	now := r.clock.Now()
	elapsed := now.Sub(r.started)
	r.mu.RLock()
	// RegisterCollector only appends, so this view never changes under us.
	collectors := r.collectors[:len(r.collectors):len(r.collectors)]
	ended := r.ended
	epoch := 0
	if cur := r.curEpoch[metrics.Training]; cur != nil {
		epoch = cur.Index
	}
	r.mu.RUnlock()
	if ended {
		return errEnded(r.ID)
	}
	for _, slot := range collectors {
		if err := slot.log(r, slot.c.Collect(elapsed), metrics.Point{Step: step, Epoch: epoch, Time: now}, elapsed); err != nil {
			return err
		}
	}
	return nil
}

// log logs each reading as a point like p with the reading's value.
func (s *collectorSlot) log(r *Run, readings []telemetry.Reading, p metrics.Point, elapsed time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, reading := range readings {
		ss := s.series(r, i, reading.Metric)
		p.Value = reading.Value
		ss.h.Log(p)
		if ss.meter != nil {
			r.mu.Lock()
			err := ss.meter.Observe(elapsed, reading.Value)
			r.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// energyMeter returns the meter integrating the named power series.
func (r *Run) energyMeter(name string) *telemetry.EnergyMeter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.energy[name]
	if m == nil {
		m = &telemetry.EnergyMeter{}
		r.energy[name] = m
	}
	return m
}

// EnergyJoules returns total integrated energy across power collectors.
func (r *Run) EnergyJoules() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total float64
	keys := make([]string, 0, len(r.energy))
	for k := range r.energy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		total += r.energy[k].Joules()
	}
	return total
}

func isPowerMetric(name string) bool {
	const suffix = "_power_w"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}

func errEnded(id string) error {
	return fmt.Errorf("core: run %s has already ended", id)
}

// toProvValue converts supported Go values to prov.Value.
func toProvValue(v interface{}) (prov.Value, error) {
	switch x := v.(type) {
	case string:
		return prov.Str(x), nil
	case int:
		return prov.Int(int64(x)), nil
	case int64:
		return prov.Int(x), nil
	case float64:
		return prov.Float(x), nil
	case float32:
		return prov.Float(float64(x)), nil
	case bool:
		return prov.Bool(x), nil
	case time.Time:
		return prov.Time(x), nil
	case time.Duration:
		return prov.Float(x.Seconds()), nil
	case prov.Value:
		return x, nil
	default:
		return prov.Value{}, fmt.Errorf("unsupported value type %T", v)
	}
}

func sanitizeID(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
