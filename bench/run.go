package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool

	corpusDocs int           // documents preloaded (1024; tests shrink it)
	warmup     time.Duration // untimed operations before the window
	calm       time.Duration // how long the server must sit idle to count as quiet
	setups     int           // boot+preload repetitions; setup_s is their median
	restarts   int           // kill -9 + restart cycles; restart_s is their median
	probeOps   int           // sample size of the probe pass (traced runs)

	workDir   string // scratch directory of this run, inside the checkout
	traceFile string // where a traced run writes its spans
	newTarget func(workDir string) (target, error)
	log       io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, 0 when b is 0 (a metric that does not apply to the
// workload: no writes, no misses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is one finished run.
type result struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	Seconds    float64   `json:"seconds"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Samples    int       `json:"latency_samples"`
	FirstError string    `json:"first_error,omitempty"`
	Metrics    metricSet `json:"metrics"`
}

// snapshotOf is everything read at a window edge.
type snapshotOf struct {
	serverCPU float64 // seconds
	selfCPU   float64
	ioWrite   int64
	steal     float64
	hostTotal float64
	prom      samples
	stats     serverStats
}

type runner struct {
	cfg     runConfig
	plan    *plan
	tgt     target
	child   bool // the server is a separate process: its /proc numbers are its own
	dataDir string
	ctl     *conn // control-plane connection: stats, metrics, parking writes, read-back
	clients []*client
	tr      *tracer
	m       metricSet
	res     *result
	// mutations counts acknowledged document writes since the server
	// booted, which is what its snapshot cadence counts too.
	mutations int
}

func (r *runner) logf(format string, args ...interface{}) {
	if r.cfg.log != nil {
		fmt.Fprintf(r.cfg.log, format+"\n", args...)
	}
}

// run executes one workload end to end. An error means the harness
// could not measure (the server did not boot, a file could not be
// written); wrong answers from the server are not errors but failed
// operations in the result.
func run(cfg runConfig) (*result, error) {
	r := &runner{cfg: cfg, m: metricSet{}}
	r.res = &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: cfg.window.Seconds(), Metrics: r.m}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	r.m.set("host.spin_ms", spinMS(), "ms")
	r.plan = newPlan(cfg.workload, cfg.seed, cfg.corpusDocs, cfg.workDir)

	tgt, err := cfg.newTarget(cfg.workDir)
	if err != nil {
		return nil, err
	}
	r.tgt = tgt
	_, r.child = tgt.(*childServer)
	defer tgt.crash()

	if err := r.setup(); err != nil {
		return nil, err
	}
	if err := r.measure(); err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	if err := r.restartCycles(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.probe(); err != nil {
			return nil, err
		}
		r.m.set("trace.spans", float64(r.tr.count), "count")
		if err := r.tr.write(cfg.traceFile); err != nil {
			return nil, err
		}
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// fail counts a wrong answer found outside the clients' loops.
func (r *runner) fail(err error) {
	r.res.Failed++
	if r.res.FirstError == "" {
		r.res.FirstError = err.Error()
	}
}

// setup boots the server on an empty data directory and preloads the
// corpus, cfg.setups times over; the last server stays up for the
// window. setup_s is the median of the repetitions, each timed from
// process start to the moment the preloaded server has gone quiet.
func (r *runner) setup() error {
	var times []float64
	for i := 0; i < r.cfg.setups; i++ {
		r.dataDir = filepath.Join(r.cfg.workDir, fmt.Sprintf("data-%d", i))
		done := r.tr.phase(fmt.Sprintf("setup %d", i))
		start := time.Now()
		if err := r.boot(50*time.Millisecond, nil); err != nil {
			return err
		}
		donePre := r.tr.phase("preload")
		if err := r.preload(); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		donePre()
		if err := r.quiesce(); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		done()
		if i < r.cfg.setups-1 {
			r.tgt.crash()
			if err := os.RemoveAll(r.dataDir); err != nil {
				return err
			}
		}
	}
	r.logf("setup_s samples: %.3f", times)
	r.m.set("setup_s", median(times), "s")
	return nil
}

// boot starts the server on r.dataDir and waits for /healthz, polling
// at the given interval and keeping ref, if any, busy in between.
func (r *runner) boot(poll time.Duration, ref *refMeter) error {
	if err := r.tgt.start(r.dataDir); err != nil {
		return err
	}
	if err := waitHealthy(r.tgt.addr(), poll, 60*time.Second, ref); err != nil {
		if cs, ok := r.tgt.(*childServer); ok {
			err = fmt.Errorf("%w\nserver log:\n%s", err, serverLogTail(cs.logPath))
		}
		return err
	}
	// A fresh control connection: the old one died with the old
	// server, and an in-process server comes back on another port.
	if r.ctl != nil {
		r.ctl.close()
	}
	r.ctl = &conn{addr: r.tgt.addr()}
	return nil
}

// preload uploads version 0 of every document: each client sends its
// own blocks, in order, as NDJSON batches.
func (r *runner) preload() error {
	p := r.plan
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := dial(r.tgt.addr())
			if err != nil {
				errs[id] = err
				return
			}
			defer c.close()
			cl := &client{id: id, p: p, conn: c}
			for b := 0; b < len(p.batches)/clients; b++ {
				spec := opSpec{class: classBatch, block: id + clients*b, version: 0}
				if res := cl.write(spec); res.err != nil {
					errs[id] = res.err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	r.mutations = len(p.corpus.docs)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// quiesce waits until the server has no background work left: the
// commit queue is empty, no snapshot completed and (for a child
// process) it burned next to no CPU, all for cfg.calm. The CPU test is
// what catches a checkpoint that is still encoding and has touched no
// counter yet.
func (r *runner) quiesce() error {
	const (
		step     = 25 * time.Millisecond
		idleCPU  = 0.025 // seconds of CPU tolerated per calm period
		deadline = 20 * time.Second
	)
	type obs struct {
		at   time.Time
		cpu  float64
		snap uint64
	}
	poll := func() (obs, bool, error) {
		st, err := fetchStats(r.ctl)
		if err != nil {
			return obs{}, false, fmt.Errorf("quiesce: %w", err)
		}
		now := obs{at: time.Now(), snap: st.Durability.Snapshots}
		if r.child {
			if now.cpu, err = procCPU(r.tgt.pid()); err != nil {
				return obs{}, false, err
			}
		}
		return now, st.Durability.QueueDepth == 0, nil
	}
	base, _, err := poll()
	if err != nil {
		return err
	}
	begin := base.at
	for {
		time.Sleep(step)
		now, drained, err := poll()
		if err != nil {
			return err
		}
		switch {
		case !drained || now.snap != base.snap || now.cpu-base.cpu > idleCPU:
			base = now // something happened: the calm period starts over
		case now.at.Sub(base.at) >= r.cfg.calm:
			return nil
		}
		if now.at.Sub(begin) > deadline {
			// A server that never goes quiet (background work a later
			// change adds, say) still gets measured, only less repeatably.
			r.logf("warning: server still busy after %v, going on", deadline)
			return nil
		}
	}
}

func (r *runner) sample() (snapshotOf, error) {
	var s snapshotOf
	var err error
	if s.prom, err = scrape(r.ctl); err != nil {
		return s, err
	}
	if s.stats, err = fetchStats(r.ctl); err != nil {
		return s, err
	}
	pid := r.tgt.pid()
	if s.serverCPU, err = procCPU(pid); err != nil {
		return s, err
	}
	// /proc/<pid>/io needs ptrace rights some sandboxes withhold; the
	// metric derived from it then reads 0.
	s.ioWrite, _ = procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, err
	}
	s.selfCPU = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	s.steal, s.hostTotal = hostCPU()
	return s, nil
}

// phaseResult is the merged outcome of all clients over one phase.
type phaseResult struct {
	lat       []int64 // sorted
	byClass   [numClasses][]int64
	ops       int
	attempted int
	failed    int
	docs      int
	bytes     int64
	rate      float64 // operations per second, summed over clients
	firstErr  error
	run       time.Duration
	upload    time.Duration
	start     time.Time
	end       time.Time
}

// drive runs every client's loop for d and merges what they recorded.
func (r *runner) drive(d time.Duration) phaseResult {
	var wg sync.WaitGroup
	out := phaseResult{start: time.Now()}
	for _, cl := range r.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.loop(d)
		}(cl)
	}
	wg.Wait()
	out.end = time.Now()
	for _, cl := range r.clients {
		rec := &cl.rec
		out.attempted += rec.attempted
		out.failed += rec.failed
		out.docs += rec.docs
		out.bytes += rec.bytes
		out.run += rec.run
		out.upload += rec.upload
		out.ops += len(rec.lat)
		if out.firstErr == nil {
			out.firstErr = rec.firstErr
		}
		if rec.elapsed > 0 {
			out.rate += float64(len(rec.lat)) / rec.elapsed.Seconds()
		}
		out.lat = append(out.lat, rec.lat...)
		for i, c := range rec.class {
			out.byClass[c] = append(out.byClass[c], rec.lat[i])
		}
		r.mutations += rec.docs
	}
	slices.Sort(out.lat)
	for c := range out.byClass {
		slices.Sort(out.byClass[c])
	}
	r.res.Attempted += out.attempted
	r.res.Failed += out.failed
	if out.firstErr != nil && r.res.FirstError == "" {
		r.res.FirstError = out.firstErr.Error()
	}
	return out
}

// measure warms the server up and runs the timed window.
func (r *runner) measure() error {
	cfg := r.cfg
	for id := 0; id < clients; id++ {
		cl, err := newClient(r.plan, id, r.tgt.addr())
		if err != nil {
			return err
		}
		defer cl.close()
		r.clients = append(r.clients, cl)
	}
	done := r.tr.phase("warm-up")
	r.drive(cfg.warmup)
	done()
	var control float64
	if cfg.trace {
		// The same loop with tracing off, a third of the window long:
		// the rate the traced window is compared with.
		done := r.tr.phase("untraced control")
		control = r.drive(cfg.window / 3).rate
		done()
		r.plan.trace = true
	}
	win, err := r.window()
	if err != nil {
		return err
	}
	r.plan.trace = false
	w := win.phaseResult

	// The window as a whole: successful operations per second summed
	// over the clients, the median latency of all of them, and the
	// server's CPU time per operation.
	rawRate, rawP50 := w.rate, ms(percentile(w.lat, 0.50))
	rawCPU := (win.after.serverCPU - win.before.serverCPU) * 1e3 / float64(w.ops)

	// How slow the machine was while the window ran: the clients' mean
	// reference-task time against the calm machine's. Timings are
	// reported as they would have read on the calm machine.
	meters := make([]*refMeter, len(r.clients))
	for i, cl := range r.clients {
		meters[i] = cl.ref
	}
	ref := refMean(meters, w.start, w.end)
	slow := 1.0
	if ref > 0 {
		slow = float64(ref) / float64(refNominal)
	}
	r.res.Samples = w.ops
	r.m.set("ops_per_s", rawRate*slow, "1/s")
	r.m.set("p50_ms", rawP50/slow, "ms")
	r.m.set("server_cpu_ms_per_op", rawCPU/slow, "ms")
	r.m.set("host.ref_task_us", float64(ref)/1e3, "us")
	r.m.set("client.raw_ops_per_s", rawRate, "1/s")
	r.m.set("client.raw_p50_ms", rawP50, "ms")
	// Throughput of the last third of the window's slices against the
	// first third: what the server's own state (heap, caches) does to
	// it as the window goes on.
	n, each := slicing(cfg.window)
	progress := r.sliceProgress(n, each)
	r.m.set("client.drift_pct", (ratio(median(progress[n-n/3:]), median(progress[:n/3]))-1)*100, "%")
	hwm, err := procField(fmt.Sprintf("/proc/%d/status", r.tgt.pid()), "VmHWM") // kB
	if err != nil {
		return err
	}
	r.m.set("server_peak_rss_mb", float64(hwm)/1024, "MB")

	r.logf("operations per %v slice: %.0f", each, progress)
	r.logf("%s: %d ops in %.2fs (%d attempted, %d failed): %.1f ops/s, p50 %.3f ms, server CPU %.4f ms/op as measured; the reference task took %v, %.2f× its calm-machine time",
		cfg.workload, w.ops, w.end.Sub(w.start).Seconds(), w.attempted, w.failed, rawRate, rawP50, rawCPU, ref, slow)
	r.layerMetrics(w, win.before, win.after, control)
	return nil
}

// window is one timed window and what was read around it.
type window struct {
	phaseResult
	before, after snapshotOf
}

// window runs the clients for the configured window, sampling the
// server at its edges.
func (r *runner) window() (window, error) {
	var win window
	var err error
	if r.child {
		resetPeakRSS(r.tgt.pid())
	}
	if win.before, err = r.sample(); err != nil {
		return win, err
	}
	done := r.tr.phase("window")
	win.phaseResult = r.drive(r.cfg.window)
	done()
	if win.after, err = r.sample(); err != nil {
		return win, err
	}
	if win.ops == 0 {
		return win, fmt.Errorf("%s: no operation succeeded in the window (first error: %v)", r.cfg.workload, win.firstErr)
	}
	return win, nil
}

// settle parks the store at a fixed point of its snapshot cycle —
// snapshotPark mutations after a completed snapshot — and measures the
// data directory there. Sampled wherever the window happened to end,
// disk bytes (and recovery time) would depend on how much journal had
// piled up since the last snapshot, which is noise.
func (r *runner) settle() error {
	done := r.tr.phase("quiesce+park")
	defer done()
	if err := r.quiesce(); err != nil {
		return err
	}
	// Rewrite documents with the bytes they already hold — the live
	// set does not change — up to the next snapshot boundary; wait for
	// that snapshot; then go half a cycle further.
	cl := &client{id: 0, p: r.plan, conn: r.ctl}
	next := 0
	rewrite := func(n int) error {
		for i := 0; i < n; i++ {
			di := clients * (next % (len(r.plan.corpus.docs) / clients))
			next++
			if res := cl.write(opSpec{class: classWrite, doc: di, version: r.plan.version[di]}); res.err != nil {
				return fmt.Errorf("parking write: %w", res.err)
			}
			r.mutations++
		}
		return nil
	}
	if err := rewrite(serverSnapshot - r.mutations%serverSnapshot); err != nil {
		return err
	}
	if err := r.quiesce(); err != nil {
		return err
	}
	if err := rewrite(snapshotPark); err != nil {
		return err
	}
	if err := r.quiesce(); err != nil {
		return err
	}
	disk, err := dirBytes(r.dataDir)
	if err != nil {
		return err
	}
	r.m.set("disk_bytes_per_live_byte", float64(disk)/float64(r.plan.liveBytes()), "B/B")
	return nil
}

// snapshotPark is how many single-document writes past a completed
// snapshot the store is parked at before disk and recovery are
// measured: half the server's default cadence.
const snapshotPark = serverSnapshot / 2

// restartCycles crashes and restarts the server on the parked data
// directory. A cycle runs from kill -9 to the first 200 from /healthz;
// while it waits the harness runs the reference task on the core the
// clients left idle, and the cycle's time is scaled by how slow that
// ran against the calm machine. restart_s is the median of the scaled
// cycles. After the first restart, what was acknowledged in the last
// two seconds of the window is read back.
func (r *runner) restartCycles() error {
	ref, err := newRefMeter(r.cfg.workDir, "ref-restart")
	if err != nil {
		return err
	}
	defer ref.close()
	var raw, scaled, refs []float64
	for i := 0; i < r.cfg.restarts; i++ {
		done := r.tr.phase(fmt.Sprintf("restart %d", i))
		start := time.Now()
		ref.reset(start)
		r.tgt.crash()
		if err := r.boot(2*time.Millisecond, ref); err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		t := time.Since(start).Seconds()
		done()
		slow := 1.0
		if n := len(ref.marks); n > 0 {
			slow = float64(ref.spent) / float64(n) / float64(refNominalIdle)
		}
		raw, scaled, refs = append(raw, t), append(scaled, t/slow), append(refs, slow)
		if i == 0 {
			r.readBack()
		}
	}
	r.logf("restart_s samples as measured: %.3f; the reference task took %.2f× its calm-machine time", raw, refs)
	r.m.set("restart_s", median(scaled), "s")
	r.m.set("client.raw_restart_s", median(raw), "s")
	r.m.set("host.ref_task_idle_us", median(refs)*float64(refNominalIdle)/1e3, "us")
	return nil
}

// readBackWindow and readBackMax bound the post-crash check: writes
// acknowledged in the last readBackWindow of the timed window, newest
// first, at most readBackMax documents.
const (
	readBackWindow = 2 * time.Second
	readBackMax    = 512
)

// readBack fetches recently acknowledged documents from the restarted
// server and checks each holds the version that was acknowledged last.
func (r *runner) readBack() {
	var acks []ack
	var end time.Time
	for _, cl := range r.clients {
		acks = append(acks, cl.rec.acks...)
		if n := len(cl.rec.acks); n > 0 && cl.rec.acks[n-1].at.After(end) {
			end = cl.rec.acks[n-1].at
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].at.After(acks[j].at) })
	p := r.plan
	seen := map[string]bool{}
	checked, lost := 0, 0
	check := func(id string, verify func() error) {
		if seen[id] || checked >= readBackMax {
			return
		}
		seen[id] = true
		checked++
		r.res.Attempted++
		if err := verify(); err != nil {
			lost++
			r.fail(fmt.Errorf("acknowledged write lost across kill -9: %w", err))
		}
	}
	for _, a := range acks {
		if end.Sub(a.at) > readBackWindow {
			break
		}
		switch a.class {
		case classWrite:
			check(p.corpus.docs[a.ref].id, func() error { return r.checkStored(a.ref) })
		case classBatch:
			first := p.blockDocs(a.ref)
			for t := 0; t < batchDocs; t++ {
				di := first + clients*t
				check(p.corpus.docs[di].id, func() error { return r.checkStored(di) })
			}
		case classTrain:
			c, n := a.ref%clients, a.ref/clients
			id := trainDocID(c, n)
			check(id, func() error { return checkRun(r.ctl, id, c, n) })
		}
	}
	r.logf("read back %d recently acknowledged document(s) after kill -9: %d lost", checked, lost)
	r.m.set("client.acked_lost", float64(lost), "count")
}

// checkStored fetches corpus document di and checks its bench:rev
// marker against the version last acknowledged.
func (r *runner) checkStored(di int) error {
	d := &r.plan.corpus.docs[di]
	resp, err := r.ctl.get("/api/v0/documents/" + d.id)
	if err != nil {
		return err
	}
	var doc struct {
		Entity map[string]map[string]interface{} `json:"entity"`
	}
	if err := json.Unmarshal(resp.body, &doc); err != nil {
		return fmt.Errorf("%s: %v", d.id, err)
	}
	want := fmt.Sprintf("v%d", r.plan.version[di])
	if got := doc.Entity["ex:e0"]["bench:rev"]; got != want {
		return fmt.Errorf("%s holds bench:rev %v, acknowledged %s", d.id, got, want)
	}
	return nil
}

// spinMS times a fixed arithmetic loop, the median of five: a canary
// that reads high when a neighbour is taking the machine's cycles.
func spinMS() float64 {
	var times []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		x := uint64(i)
		for j := 0; j < 20_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		runtime.KeepAlive(x) // keeps the loop from being optimised away
		times = append(times, float64(time.Since(start))/1e6)
	}
	return median(times)
}

// serverLogTail returns the end of the child server's log for error
// messages.
func serverLogTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}
