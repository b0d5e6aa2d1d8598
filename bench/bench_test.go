package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provstore"
)

// testCorpus is small enough for a run to take about a second and
// still holds every depth class (two blocks).
const testCorpus = clients * batchDocs

// TestSmoke runs every workload end to end — setup, window, parking,
// crash/restart with read-back, probes, trace file — against an
// in-process server, and checks that every metric BENCHMARK.json names
// comes out: present, finite, in the declared unit, and non-zero where
// the contract says it is never zero.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	refInit() // up front, not during the first windows: it is half a second of CPU
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			res, err := run(runConfig{
				workload: wl, seed: 1, window: 300 * time.Millisecond, trace: true,
				corpusDocs: testCorpus, warmup: 100 * time.Millisecond, calm: 50 * time.Millisecond, setups: 1, restarts: 1, probeOps: 16,
				workDir:   filepath.Join(dir, "work"),
				traceFile: filepath.Join(dir, wl+".trace.json"),
				newTarget: func(string) (target, error) { return &inprocServer{}, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.FirstError)
			}
			for _, list := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
				for _, def := range list {
					m, ok := res.Metrics[def.Name]
					switch {
					case !ok:
						t.Errorf("%s: not measured", def.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", def.Name, m.Value)
					case m.Unit != def.Unit:
						t.Errorf("%s in %q, BENCHMARK.json says %q", def.Name, m.Unit, def.Unit)
					}
				}
			}
			for _, def := range bf.EndToEnd {
				if res.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", def.Name, res.Metrics[def.Name].Value)
				}
			}
			if res.Metrics["client.acked_lost"].Value != 0 {
				t.Errorf("acked_lost = %v", res.Metrics["client.acked_lost"].Value)
			}
			// The separations the workloads exist for.
			switch hit := res.Metrics["readcache.hit_ratio"].Value; {
			case wl == "lineage_hot" && hit < 0.9:
				t.Errorf("lineage_hot hit ratio %v: the hot set should live in the cache", hit)
			case wl == "ingest_batch" && res.Metrics["provstore.snapshots_per_kop"].Value == 0:
				t.Errorf("ingest_batch completed no snapshot cycle")
			}
			if info, err := os.Stat(filepath.Join(dir, wl+".trace.json")); err != nil || info.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestOpStreamDeterminism: the same seed yields a byte-identical
// operation stream, another seed another one.
func TestOpStreamDeterminism(t *testing.T) {
	hash := func(wl string, seed int64) [32]byte {
		return sha256.Sum256(newPlan(wl, seed, testCorpus, "").opStream(40))
	}
	for _, wl := range workloadNames {
		if hash(wl, 1) != hash(wl, 1) {
			t.Errorf("%s: seed 1 gave two different streams", wl)
		}
		if hash(wl, 1) == hash(wl, 2) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", wl)
		}
	}
}

// TestCorpus: the generated documents are valid canonical PROV-JSON,
// the corpus has the same shape for every seed, and the lineage the
// harness expects is the lineage the store computes.
func TestCorpus(t *testing.T) {
	c1, c2 := newCorpus(1, testCorpus), newCorpus(2, testCorpus)
	if c1.liveBytes != c2.liveBytes || c1.entities != c2.entities || len(c1.hot) != len(c2.hot) {
		t.Fatalf("corpus shape depends on the seed: %d/%d bytes, %d/%d entities, %d/%d hot keys",
			c1.liveBytes, c2.liveBytes, c1.entities, c2.entities, len(c1.hot), len(c2.hot))
	}
	if bytes.Equal(c1.docs[0].body[0], c2.docs[0].body[0]) {
		t.Error("seeds 1 and 2 generated the same first document")
	}
	store := provstore.NewSharded(2)
	for i := range c1.docs {
		d := &c1.docs[i]
		if len(d.body[0]) != len(d.body[1]) || bytes.Equal(d.body[0], d.body[1]) {
			t.Fatalf("%s: versions must differ and have one length", d.id)
		}
		doc, err := prov.ParseJSON(d.body[1])
		if err != nil {
			t.Fatalf("%s: %v", d.id, err)
		}
		if _, err := doc.Validate(); err != nil {
			t.Fatalf("%s: %v", d.id, err)
		}
		// Canonical: re-encoding gives the same number of bytes (key
		// order inside an object aside).
		if out, err := doc.MarshalJSON(); err != nil || len(out) != len(d.body[1]) {
			t.Fatalf("%s: generated %d bytes, canonical encoding has %d (%v)", d.id, len(d.body[1]), len(out), err)
		}
		if err := store.Put(d.id, doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, di := range c1.hot[:4] {
		d := &c1.docs[di]
		for _, k := range []int{0, d.depth / 2, d.depth - 1} {
			for _, anc := range []bool{true, false} {
				dir := provstore.Descendants
				if anc {
					dir = provstore.Ancestors
				}
				nodes, err := store.Lineage(d.id, prov.NewQName("ex", "e"+strconv.Itoa(k)), dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(nodes) != lineageSize(d.depth, k, anc) {
					t.Errorf("%s e%d anc=%v: store returns %d nodes, harness expects %d", d.id, k, anc, len(nodes), lineageSize(d.depth, k, anc))
				}
				for _, n := range nodes {
					if !lineageMember(string(n), d.depth, k, anc) {
						t.Errorf("%s e%d anc=%v: harness rejects %s", d.id, k, anc, n)
					}
				}
			}
		}
	}
}

// TestSpans covers the X-Yprov-Spans parser and the self-time
// subtraction the layer trace rests on.
func TestSpans(t *testing.T) {
	got := parseSpans("parse=0.102ms, lock=0.004ms,bogus,x=1s,=2ms,neg=-1ms")
	if len(got) != 2 || got[0] != (namedDur{"parse", 102 * time.Microsecond}) || got[1] != (namedDur{"lock", 4 * time.Microsecond}) {
		t.Errorf("parseSpans = %v", got)
	}
	if parseSpans("") != nil {
		t.Error("empty header must parse to nothing")
	}

	// A 5 ms cache miss: 2 ms in the cache layer, 1.5 ms of it filling.
	spans := opSpans(nil, tracedOp{start: time.Second, end: time.Second + 5*time.Millisecond,
		spans: "cache=2.000ms,fill=1.500ms", traceID: "t1"}, 0)
	if len(spans) != 3 || spans[1].parent != 0 || spans[2].parent != 1 {
		t.Fatalf("span tree = %+v", spans)
	}
	self := map[string]time.Duration{}
	addSelfTimes(self, spans)
	want := map[string]time.Duration{"client": 3 * time.Millisecond, "readcache": 500 * time.Microsecond, "provstore": 1500 * time.Microsecond}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], d)
		}
	}
	for _, s := range spans[1:] {
		p := spans[s.parent]
		if s.start < p.start || s.start+s.dur > p.start+p.dur {
			t.Errorf("%s [%v+%v] not inside its parent %s [%v+%v]", s.name, s.start, s.dur, p.name, p.start, p.dur)
		}
	}

	// A write: children never push self time below zero.
	self = map[string]time.Duration{}
	addSelfTimes(self, opSpans(nil, tracedOp{end: time.Millisecond, spans: "parse=0.400ms,lock=0.100ms,stage=0.100ms,commit=0.600ms"}, 0))
	if self["client"] != 0 || self["wal"] != 700*time.Microsecond || self["prov"] != 400*time.Microsecond {
		t.Errorf("write self times = %v", self)
	}
}

// TestSlices: an operation straddling a slice boundary is shared
// between the slices by duration.
func TestSlices(t *testing.T) {
	sec := int64(time.Second)
	r := &runner{clients: []*client{{rec: recorder{
		// One operation from 0.5 s to 1.5 s, one from 1.5 s to 1.9 s.
		ends: []int64{sec * 15 / 10, sec * 19 / 10}, lat: []int64{sec, sec * 4 / 10},
	}}}}
	if done := r.sliceProgress(3, time.Second); done[0] != 0.5 || done[1] != 1.5 || done[2] != 0 {
		t.Errorf("progress = %v, want [0.5 1.5 0]", done)
	}
}

// TestRefMeter: the reference task takes its share of the owner's
// time and no more, and refMean averages what ran inside an interval.
func TestRefMeter(t *testing.T) {
	m, err := newRefMeter(t.TempDir(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	begin := time.Now().Add(-100 * time.Millisecond) // as if 100 ms of operations had passed
	m.reset(begin)
	m.catchUp(time.Now())
	if len(m.marks) == 0 || m.spent < 5*time.Millisecond {
		t.Fatalf("%d tasks taking %v: less than the 5 %% share of 100 ms", len(m.marks), m.spent)
	}
	last := m.marks[len(m.marks)-1]
	if float64(m.spent-last.dur) >= refShare*float64(last.end.Sub(begin)) {
		t.Errorf("%v spent before the last task, which ended %v in: it ran past its share", m.spent-last.dur, last.end.Sub(begin))
	}
	if got, want := refMean([]*refMeter{m}, begin, last.end.Add(time.Nanosecond)), m.spent/time.Duration(len(m.marks)); got != want {
		t.Errorf("refMean = %v, want %v", got, want)
	}
	if refMean([]*refMeter{m}, begin.Add(-time.Second), begin) != 0 {
		t.Error("refMean over an interval without tasks must be 0")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median")
	}
}

// TestSelfCheckAndCompare drives the two agreement tools with made-up
// runs: identical sets pass, a shifted metric is reported.
func TestSelfCheckAndCompare(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	fake := func(scale float64) func(string, int64) (*result, error) {
		calls := 0
		return func(wl string, seed int64) (*result, error) {
			calls++
			m := metricSet{}
			for _, d := range bf.EndToEnd {
				m.set(d.Name, 100+float64(seed), d.Unit)
			}
			if calls > len(workloadNames)*selfCheckRuns { // second set
				m.set("ops_per_s", (100+float64(seed))*scale, "1/s")
			}
			m.set("host.spin_ms", 20, "ms")
			return &result{Workload: wl, Seed: seed, Correct: true, Metrics: m}, nil
		}
	}
	var out bytes.Buffer
	if err := selfCheck(&out, bf, 1, fake(1)); err != nil {
		t.Errorf("identical sets: %v\n%s", err, out.String())
	}
	if err := selfCheck(&out, bf, 1, fake(0.5)); err == nil || !strings.Contains(err.Error(), "ops_per_s") {
		t.Errorf("a 50%% throughput drop between sets went unreported: %v", err)
	}

	dir := t.TempDir()
	write := func(name string, ops float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			m := metricSet{}
			m.set("ops_per_s", ops+float64(i), "1/s")
			m.set("p50_ms", 2, "ms")
			if err := appendResult(path, &result{Workload: "mixed_rw", Seed: int64(i), Correct: true, Metrics: m}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	out.Reset()
	if err := compareFiles(&out, bf, write("parent.jsonl", 1000), write("change.jsonl", 1200)); err != nil {
		t.Fatal(err)
	}
	var opsRow, p50Row string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "ops_per_s") {
			opsRow = line
		}
		if strings.Contains(line, "p50_ms") {
			p50Row = line
		}
	}
	if !strings.HasSuffix(opsRow, "better") || !strings.Contains(opsRow, "1.200x of 1002") {
		t.Errorf("ops_per_s row: %q", opsRow)
	}
	if !strings.HasSuffix(p50Row, "same") {
		t.Errorf("p50_ms row: %q", p50Row)
	}
}
