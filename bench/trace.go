package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// A traced run keeps one span per layer boundary in memory and writes
// them out when the run ends. Spans come from three places, all inside
// the benchmark's own files: the harness brackets its phases and every
// request (client.op); the server's X-Yprov-Spans response header
// names the time each request spent in the layers below the HTTP
// handler, which become children of that request's client.op; and the
// probe pass wraps each call into a layer's exported functions.

// span is one timed interval attributed to a layer.
type span struct {
	name   string // what ran: "client.op", "cache", "probe graphdb.Closure", ...
	layer  string // the package the time belongs to
	parent int    // index of the enclosing span, -1 for a root
	start  time.Duration
	dur    time.Duration
	tid    int    // client number, or phaseTID for harness phases
	trace  string // X-Yprov-Trace id shared by one request's spans
}

const phaseTID = 100

// headerLayer maps the server's span names to the package whose work
// they time, and nests "fill" (the store read behind a cache miss)
// under "cache".
var headerLayer = map[string]string{
	"parse":   "prov",      // PROV-JSON decode + validate
	"lock":    "provstore", // shard write-lock wait
	"project": "graphdb",   // graph projection of the new document
	"stage":   "wal",       // record encode + append to the commit buffer
	"commit":  "wal",       // group-commit wait: write + fsync
	"cache":   "readcache", // lookup, single-flight wait and fill
	"fill":    "provstore", // Lineage: closure BFS + response encode
}

// namedDur is one entry of an X-Yprov-Spans header.
type namedDur struct {
	name string
	dur  time.Duration
}

// parseSpans decodes "parse=0.102ms,lock=0.004ms". Entries it cannot
// read are skipped: the header is diagnostics, not protocol.
func parseSpans(h string) []namedDur {
	if h == "" {
		return nil
	}
	var out []namedDur
	for _, part := range strings.Split(h, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		val, isMs := strings.CutSuffix(val, "ms")
		if !ok || !isMs || name == "" {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			continue
		}
		out = append(out, namedDur{name: name, dur: time.Duration(f * 1e6)})
	}
	return out
}

// opSpans appends the span tree of one request to dst: client.op at
// the root, the server's header spans as its children, fill under
// cache. Header spans carry durations only; children are laid end to
// end, centred in their parent, which is where the socket time on
// either side puts them on average.
func opSpans(dst []span, op tracedOp, tid int) []span {
	root := len(dst)
	dst = append(dst, span{name: "client.op", layer: "client", parent: -1,
		start: op.start, dur: op.end - op.start, tid: tid, trace: op.traceID})
	var top, fill time.Duration
	cache := -1
	for _, nd := range parseSpans(op.spans) {
		layer, known := headerLayer[nd.name]
		if !known {
			layer = "provservice"
		}
		if nd.name == "fill" {
			fill = nd.dur
			continue
		}
		if nd.name == "cache" {
			cache = len(dst)
		}
		top += nd.dur
		dst = append(dst, span{name: nd.name, layer: layer, parent: root, dur: nd.dur, tid: tid, trace: op.traceID})
	}
	at := op.start + max(0, (op.end-op.start-top)/2)
	for i := root + 1; i < len(dst); i++ {
		dst[i].start = at
		at += dst[i].dur
	}
	if fill > 0 {
		parent, start := root, op.start
		if cache >= 0 {
			parent, start = cache, dst[cache].start+max(0, (dst[cache].dur-fill)/2)
		}
		dst = append(dst, span{name: "fill", layer: headerLayer["fill"], parent: parent, start: start, dur: fill, tid: tid, trace: op.traceID})
	}
	return dst
}

// addSelfTimes adds each span's self time — its duration minus the
// part its direct children cover — to acc under the span's layer.
// Children of one parent do not overlap, so the covered part is their
// sum, capped at the parent's duration.
func addSelfTimes(acc map[string]time.Duration, spans []span) {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.dur
		}
	}
	for i, s := range spans {
		acc[s.layer] += s.dur - min(covered[i], s.dur)
	}
}

// tracer accumulates a traced run's spans. A nil tracer records
// nothing, so scored runs pay only nil checks.
type tracer struct {
	epoch time.Time
	spans []span // phases and probe calls in full; requests up to maxOpsWritten per client
	count int    // every span recorded, written or not
	self  map[string]time.Duration
}

// maxOpsWritten bounds the request spans kept for the trace file per
// client; self times are summed over all of them regardless.
const maxOpsWritten = 5000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: map[string]time.Duration{}}
}

// phase brackets a harness phase; call the result when it ends.
func (t *tracer) phase(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.epoch)
	return func() {
		t.spans = append(t.spans, span{name: name, layer: "harness", parent: -1,
			start: start, dur: time.Since(t.epoch) - start, tid: phaseTID})
		t.count++
	}
}

// call records one probe call into layer.
func (t *tracer) call(name, layer string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, layer: layer, parent: -1,
		start: start.Sub(t.epoch), dur: dur, tid: phaseTID + 1})
	t.count++
}

// requests folds one client's traced window into the tracer.
// windowStart is when the window began.
func (t *tracer) requests(ops []tracedOp, tid int, windowStart time.Time) {
	if t == nil {
		return
	}
	offset := windowStart.Sub(t.epoch)
	var buf []span
	for i, op := range ops {
		op.start += offset
		op.end += offset
		buf = opSpans(buf[:0], op, tid)
		addSelfTimes(t.self, buf)
		t.count += len(buf)
		if i < maxOpsWritten {
			base := len(t.spans)
			for _, s := range buf {
				if s.parent >= 0 {
					s.parent += base
				}
				t.spans = append(t.spans, s)
			}
		}
	}
}

// write emits the kept spans in Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one
// thread lane per client plus one for phases and one for probes.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := map[string]interface{}{
			"name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.tid,
			"ts": float64(s.start) / 1e3, "dur": float64(s.dur) / 1e3,
		}
		if s.trace != "" {
			ev["args"] = map[string]string{"trace": s.trace}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			_ = f.Close()
			return err
		}
		w.Write(b)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
