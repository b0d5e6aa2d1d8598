// Package loadgen replays configurable provenance-workload scenarios
// against a live yProv service and reports throughput plus latency
// percentiles. It is the measurement harness for the ROADMAP's
// "million-user" ingestion north star: the scenario mixes exercise the
// batch ingestion path, the sharded lineage read path, and the
// contended hot-document case, using the same document bodies as the
// tracked sharding benchmarks (internal/shardbench), so load-generator
// numbers and benchmark numbers describe the same workload.
//
// cmd/yprov-loadgen is the CLI wrapper; tests drive Run directly in
// Smoke mode against an httptest server.
package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provclient"
	"repro/internal/readcache"
	"repro/internal/shardbench"
)

// Scenario selects an operation mix.
type Scenario string

// The built-in scenario mixes.
const (
	// IngestHeavy is 100% batch uploads of fresh documents.
	IngestHeavy Scenario = "ingest"
	// LineageHeavy is 100% lineage queries over preloaded documents.
	LineageHeavy Scenario = "lineage"
	// Mixed is 1 batch upload per 8 operations, the rest lineage reads —
	// the contention shape that motivated the sharded engine.
	Mixed Scenario = "mixed"
	// HotDoc skews 90% of operations onto the hottest 10% of documents,
	// writers re-uploading them while readers traverse them.
	HotDoc Scenario = "hotspot"
	// Chaos is the overload/fault harness: single-document writes (1 per
	// 4 ops, the rest lineage reads) where a 429 from admission control
	// counts as shed, not failed, and every acknowledged write is read
	// back after the run — the zero-acked-write-loss check for runs
	// against a fault-injected or overloaded server.
	Chaos Scenario = "chaos"
	// ReadCacheHeavy is 100% lineage reads over the hottest 10% of
	// documents — a small enough key set that the server's read cache
	// should absorb nearly every request: a response stays valid until
	// its own document is rewritten, and this scenario writes nothing.
	// Documents default to deep chains (ChainDepth 512, matching
	// BenchmarkLineageCached) so each miss pays a real traversal+encode
	// and the cache's win is visible over HTTP overhead. The report
	// includes the run-window cache hit ratio scraped from
	// /api/v0/stats; compare against a -read-cache-entries=0 server to
	// measure the cache's throughput win.
	ReadCacheHeavy Scenario = "readcache"
)

// Scenarios lists every built-in scenario.
func Scenarios() []Scenario {
	return []Scenario{IngestHeavy, LineageHeavy, Mixed, HotDoc, Chaos, ReadCacheHeavy}
}

// Config parameterizes one load-generation run. Zero values select
// defaults.
type Config struct {
	BaseURL string
	Token   string
	// ReplicaURLs, when set, splits read operations (lineage queries)
	// across these replicas with failover while writes stay pinned to
	// BaseURL — the replica-aware topology of a replicated deployment.
	ReplicaURLs []string
	// Scenario is the operation mix (default Mixed).
	Scenario Scenario
	// Concurrency is the worker count (default 8, shardbench.Goroutines).
	Concurrency int
	// Duration bounds the run wall-clock (default 10s).
	Duration time.Duration
	// Rate is the target total operations/second across all workers
	// (0 = unthrottled).
	Rate float64
	// BatchSize is the documents per upload operation (default 25; 1
	// degrades to single PUTs for comparison runs).
	BatchSize int
	// Preload seeds this many documents before the clock starts, giving
	// read scenarios something to traverse (default 64).
	Preload int
	// ChainDepth is the lineage depth of generated documents
	// (default 12, matching the sharding benchmarks).
	ChainDepth int
	// Seed fixes the operation-mix RNG (0 = time-seeded).
	Seed int64
	// Smoke shrinks everything to a bounded sub-second run (2 workers,
	// <= 25 ops each) for CI integration tests.
	Smoke bool
}

func (c Config) withDefaults() Config {
	if c.Scenario == "" {
		c.Scenario = Mixed
	}
	if c.Concurrency <= 0 {
		c.Concurrency = shardbench.Goroutines
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 25
	}
	if c.Preload <= 0 {
		c.Preload = 64
	}
	if c.ChainDepth <= 0 {
		if c.Scenario == ReadCacheHeavy {
			c.ChainDepth = 512 // deep enough that a cache miss costs a real traversal
		} else {
			c.ChainDepth = 12
		}
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.Smoke {
		c.Concurrency = 2
		c.Duration = 500 * time.Millisecond
		c.BatchSize = 5
		c.Preload = 8
	}
	return c
}

// smokeOpsPerWorker bounds a Smoke run so CI never depends on timing.
const smokeOpsPerWorker = 25

// LatencySummary is the merged per-operation latency distribution.
type LatencySummary struct {
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// OpStats counts one operation kind.
type OpStats struct {
	Count  int `json:"count"`
	Errors int `json:"errors"`
}

// SlowOp is one of the run's slowest operations, with the trace ID the
// request was stamped with — grep the server's request log (and a
// follower's apply log) for the ID to see where the time went.
type SlowOp struct {
	Op    string  `json:"op"`
	Ms    float64 `json:"ms"`
	Trace string  `json:"trace"`
}

// slowestKeep bounds how many slow operations each worker tracks and
// the merged report lists.
const slowestKeep = 5

// Report is the outcome of one run.
type Report struct {
	Scenario     Scenario           `json:"scenario"`
	Concurrency  int                `json:"concurrency"`
	BatchSize    int                `json:"batch_size"`
	Duration     time.Duration      `json:"-"`
	DurationSecs float64            `json:"duration_secs"`
	Ops          int                `json:"ops"`
	Errors       int                `json:"errors"`
	DocsIngested int                `json:"docs_ingested"`
	OpsPerSec    float64            `json:"ops_per_sec"`
	DocsPerSec   float64            `json:"docs_per_sec"`
	// IngestBytes is the wire payload of every acknowledged upload
	// (request bodies, before HTTP framing); JournalBytes is the growth
	// of the server's WAL over the timed run (from /stats, absent on
	// in-memory servers). Together they make wire-vs-WAL amplification
	// visible per scenario.
	IngestBytes        int64   `json:"ingest_bytes"`
	IngestBytesPerSec  float64 `json:"ingest_bytes_per_sec"`
	JournalBytes       int64   `json:"journal_bytes,omitempty"`
	JournalBytesPerSec float64 `json:"journal_bytes_per_sec,omitempty"`
	Latency      LatencySummary     `json:"latency"`
	PerOp        map[string]OpStats `json:"per_op"`
	// ErrorsByStatus breaks Errors down by HTTP status code ("429",
	// "503", ...), with transport-level failures under "transport".
	ErrorsByStatus map[string]int `json:"errors_by_status,omitempty"`
	// Slowest lists the slowest operations of the run with their trace
	// IDs (see SlowOp).
	Slowest []SlowOp `json:"slowest,omitempty"`
	// Client is client-side telemetry (breaker transitions, hedges,
	// failovers) summed over every worker's replica set; present only
	// on replica-aware runs.
	Client     *provclient.ClientMetrics `json:"client,omitempty"`
	FirstError string                    `json:"first_error,omitempty"`
	// Chaos-scenario tallies: writes refused by admission control (not
	// errors — the server kept its promise by saying no), writes the
	// server acknowledged, and acknowledged writes that could not be
	// read back afterwards. AckedLost must be zero on any run.
	Shed        int `json:"shed,omitempty"`
	AckedWrites int `json:"acked_writes,omitempty"`
	AckedLost   int `json:"acked_lost,omitempty"`
	// Read-cache tallies for the timed window, scraped from the server's
	// /api/v0/stats read_cache block before and after the run. Present
	// only when the server reports a cache (readcache scenario, or any
	// run against a cache-enabled server).
	CacheHits     uint64  `json:"cache_hits,omitempty"`
	CacheMisses   uint64  `json:"cache_misses,omitempty"`
	CacheHitRatio float64 `json:"cache_hit_ratio,omitempty"`
	// Server holds server-side counter movement over the timed run,
	// scraped from GET /metrics before and after (see ServerDeltas);
	// absent when the endpoint is unreachable or unparseable.
	Server *ServerDeltas `json:"server_metrics,omitempty"`
	// BaseURL records the target so the report can print slow-trace
	// lookups as ready-to-paste yprov-debug commands.
	BaseURL string `json:"base_url,omitempty"`
}

// ServerDeltas are server-side counter deltas over the timed window,
// computed from two Prometheus scrapes. They complement the client's
// own tallies: Sheds counts every shed the server performed (not just
// this client's 429s), EncodeErrors any response that failed to
// marshal, and BundleFreezes diagnostic bundles frozen by anomaly
// triggers mid-run — a nonzero value says the flight recorder caught
// something worth `yprov-debug bundle`.
type ServerDeltas struct {
	Sheds         float64 `json:"sheds"`
	EncodeErrors  float64 `json:"encode_errors"`
	BundleFreezes float64 `json:"bundle_freezes"`
}

// workerResult is one worker's tallies, merged after the run.
type workerResult struct {
	ops, errs, docs int
	wireBytes       int64
	shed            int
	acked           []string
	perOp           map[string]OpStats
	errsByStatus    map[string]int
	slowest         []SlowOp // at most slowestKeep, descending by Ms
	latencies       []time.Duration
	firstErr        string
	client          provclient.ClientMetrics
}

// Run executes the configured scenario and reports. It fails fast when
// the service is unreachable or the preload cannot be stored; errors
// during the timed run are counted, not fatal.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return Report{}, fmt.Errorf("loadgen: BaseURL is required")
	}
	client := func() *provclient.Client {
		c := provclient.New(cfg.BaseURL)
		c.Token = cfg.Token
		return c
	}
	if err := client().Health(); err != nil {
		return Report{}, fmt.Errorf("loadgen: service unreachable: %w", err)
	}
	// One replica set per worker keeps the round-robin cursors
	// independent, like a fleet of real clients.
	replicaSet := func() *provclient.ReplicaSet {
		if len(cfg.ReplicaURLs) == 0 {
			return nil
		}
		rs := provclient.NewReplicaSet(cfg.BaseURL, cfg.ReplicaURLs)
		rs.SetToken(cfg.Token)
		return rs
	}

	doc := shardbench.ChainDoc(cfg.ChainDepth)
	leaf := prov.NewQName("ex", fmt.Sprintf("e%d", cfg.ChainDepth-1))
	seedIDs := make([]string, cfg.Preload)
	for i := range seedIDs {
		seedIDs[i] = fmt.Sprintf("seed-%04d", i)
	}
	// Chunk the preload well below the server's per-batch caps
	// (MaxBatchDocs, MaxBodyBytes) so large -preload values work.
	const preloadChunk = 1000
	for lo := 0; lo < len(seedIDs); lo += preloadChunk {
		hi := min(lo+preloadChunk, len(seedIDs))
		chunk := make(map[string]*prov.Document, hi-lo)
		for _, id := range seedIDs[lo:hi] {
			chunk[id] = doc
		}
		if err := client().UploadBatch(chunk); err != nil {
			return Report{}, fmt.Errorf("loadgen: preload: %w", err)
		}
	}
	hot := seedIDs[:max(1, len(seedIDs)/10)] // the hotspot working set

	// Wire-size constants for the ingest-bytes tally: every upload ships
	// the same document body, so a batch line costs a fixed base plus the
	// id, and a single PUT costs the bare document JSON.
	docJSON, err := doc.MarshalJSON()
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: marshal workload doc: %w", err)
	}
	emptyLine, err := provclient.EncodeBatchLine("", docJSON)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: encode batch line: %w", err)
	}
	batchLineBase := len(emptyLine) + 1 // +1 for the NDJSON newline

	// Journal growth is measured over the timed run only (preload is
	// done), from the WAL disk-bytes gauge in /stats; in-memory servers
	// report no durability block and the journal columns stay zero.
	journalBefore, haveJournal := journalDiskBytes(client())
	// Cache counters likewise delta over the timed window only, so the
	// reported hit ratio excludes preload-time compulsory misses.
	cacheBefore, haveCache := readCacheStats(client())
	// Prometheus scrape for the server-side deltas (sheds, encode
	// errors, bundle freezes) over the same window.
	metricsBefore, haveMetrics := scrapeMetrics(client())

	// Per-worker pacing: each worker spaces operation starts by
	// concurrency/rate so the fleet sums to cfg.Rate.
	var pace time.Duration
	if cfg.Rate > 0 {
		pace = time.Duration(float64(cfg.Concurrency) / cfg.Rate * float64(time.Second))
	}

	results := make([]workerResult, cfg.Concurrency)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.Concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = runWorker(workerConfig{
				cfg: cfg, client: client(), replicas: replicaSet(),
				doc: doc, leaf: leaf,
				docBytes: len(docJSON), lineBase: batchLineBase,
				seedIDs: seedIDs, hot: hot, pace: pace,
				rng: rand.New(rand.NewSource(cfg.Seed + int64(g))),
				id:  g, deadline: deadline,
			})
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		Scenario: cfg.Scenario, Concurrency: cfg.Concurrency, BatchSize: cfg.BatchSize,
		Duration: elapsed, DurationSecs: elapsed.Seconds(),
		PerOp: map[string]OpStats{},
	}
	var all []time.Duration
	var acked []string
	var slow []SlowOp
	var cm provclient.ClientMetrics
	for _, r := range results {
		rep.Ops += r.ops
		rep.Errors += r.errs
		rep.DocsIngested += r.docs
		rep.IngestBytes += r.wireBytes
		rep.Shed += r.shed
		acked = append(acked, r.acked...)
		if rep.FirstError == "" {
			rep.FirstError = r.firstErr
		}
		for k, v := range r.perOp {
			agg := rep.PerOp[k]
			agg.Count += v.Count
			agg.Errors += v.Errors
			rep.PerOp[k] = agg
		}
		for k, v := range r.errsByStatus {
			if rep.ErrorsByStatus == nil {
				rep.ErrorsByStatus = map[string]int{}
			}
			rep.ErrorsByStatus[k] += v
		}
		slow = append(slow, r.slowest...)
		cm.BreakerOpens += r.client.BreakerOpens
		cm.BreakerCloses += r.client.BreakerCloses
		cm.Hedges += r.client.Hedges
		cm.HedgeWins += r.client.HedgeWins
		cm.Failovers += r.client.Failovers
		all = append(all, r.latencies...)
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].Ms > slow[j].Ms })
	if len(slow) > slowestKeep {
		slow = slow[:slowestKeep]
	}
	rep.Slowest = slow
	if len(cfg.ReplicaURLs) > 0 {
		rep.Client = &cm
	}
	// The chaos contract: every write the server acknowledged during the
	// run — however faulted the run was — must be readable afterwards.
	if cfg.Scenario == Chaos {
		rep.AckedWrites = len(acked)
		verify := client()
		for _, id := range acked {
			if _, err := verify.Get(id); err != nil {
				rep.AckedLost++
				if rep.FirstError == "" {
					rep.FirstError = fmt.Sprintf("acked write %s lost: %v", id, err)
				}
			}
		}
	}
	if haveJournal {
		if after, ok := journalDiskBytes(client()); ok && after > journalBefore {
			rep.JournalBytes = after - journalBefore
		}
	}
	if haveCache {
		if after, ok := readCacheStats(client()); ok {
			rep.CacheHits = after.Hits - cacheBefore.Hits
			rep.CacheMisses = after.Misses - cacheBefore.Misses
			if total := rep.CacheHits + rep.CacheMisses; total > 0 {
				rep.CacheHitRatio = float64(rep.CacheHits) / float64(total)
			}
		}
	}
	if haveMetrics {
		if after, ok := scrapeMetrics(client()); ok {
			rep.Server = &ServerDeltas{
				Sheds:         metricDelta(metricsBefore, after, "yprov_admission_shed_total"),
				EncodeErrors:  metricDelta(metricsBefore, after, "yprov_response_encode_errors_total"),
				BundleFreezes: metricDelta(metricsBefore, after, "yprov_flightrec_freezes_total"),
			}
		}
	}
	rep.BaseURL = cfg.BaseURL
	if secs := elapsed.Seconds(); secs > 0 {
		rep.OpsPerSec = float64(rep.Ops) / secs
		rep.DocsPerSec = float64(rep.DocsIngested) / secs
		rep.IngestBytesPerSec = float64(rep.IngestBytes) / secs
		rep.JournalBytesPerSec = float64(rep.JournalBytes) / secs
	}
	rep.Latency = summarize(all)
	return rep, nil
}

// journalDiskBytes reads the server's WAL on-disk size from /stats.
// ok is false when the server is in-memory (no durability block) or the
// stats call fails.
func journalDiskBytes(c *provclient.Client) (int64, bool) {
	st, err := c.Stats()
	if err != nil || st.Durability == nil {
		return 0, false
	}
	return st.Durability.DiskBytes, true
}

// readCacheStats scrapes the read_cache block from /api/v0/stats.
// ok is false when the server runs without a read cache (the block is
// absent) or the stats call fails.
func readCacheStats(c *provclient.Client) (readcache.Stats, bool) {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/api/v0/stats", nil)
	if err != nil {
		return readcache.Stats{}, false
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return readcache.Stats{}, false
	}
	defer resp.Body.Close()
	var out struct {
		ReadCache *readcache.Stats `json:"read_cache"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil || out.ReadCache == nil {
		return readcache.Stats{}, false
	}
	return *out.ReadCache, true
}

// scrapeMetrics pulls one Prometheus exposition from GET /metrics.
// ok is false when the endpoint is missing or the text fails to parse.
func scrapeMetrics(c *provclient.Client) ([]obs.Sample, bool) {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, false
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	samples, err := obs.ParseSamples(body)
	if err != nil {
		return nil, false
	}
	return samples, true
}

// metricDelta is the movement of a counter family between two scrapes
// (0 when the family is absent — the subsystem is simply not enabled).
func metricDelta(before, after []obs.Sample, family string) float64 {
	b, _ := obs.SumSamples(before, family)
	a, ok := obs.SumSamples(after, family)
	if !ok {
		return 0
	}
	return a - b
}

// workerConfig is everything one worker goroutine needs.
type workerConfig struct {
	cfg      Config
	client   *provclient.Client     // writes: always the primary
	replicas *provclient.ReplicaSet // reads: fan across replicas when set
	doc      *prov.Document
	leaf     prov.QName
	docBytes int // wire bytes of one document body (single PUT)
	lineBase int // wire bytes of one batch line minus the id
	seedIDs  []string
	hot      []string
	pace     time.Duration
	rng      *rand.Rand
	id       int
	deadline time.Time
}

// runWorker loops operations for one goroutine until the deadline (or
// the Smoke op budget) and tallies outcomes.
func runWorker(w workerConfig) workerResult {
	res := workerResult{perOp: map[string]OpStats{}, errsByStatus: map[string]int{}}
	next := time.Now()
	for n := 0; ; n++ {
		if time.Now().After(w.deadline) {
			break
		}
		if w.cfg.Smoke && n >= smokeOpsPerWorker {
			break
		}
		if w.pace > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(w.pace)
		}
		kind, docs := w.pickOp(n)
		// Every operation carries a trace: the server logs requests
		// under this ID, so the slowest ops reported below can be
		// matched against server-side span breakdowns.
		tr := obs.NewTrace("")
		ctx := obs.WithTrace(context.Background(), tr)
		opStart := time.Now()
		wire, err := w.execOp(ctx, kind, n, &res)
		elapsed := time.Since(opStart)
		res.latencies = append(res.latencies, elapsed)
		res.noteSlow(kind, elapsed, tr.ID())
		st := res.perOp[kind]
		st.Count++
		res.ops++
		switch {
		case err == nil:
			res.docs += docs
			res.wireBytes += wire
		case w.cfg.Scenario == Chaos && isShed(err):
			// Admission control said no before accepting the write: the
			// server is keeping its durability promise, not breaking one.
			res.shed++
		default:
			st.Errors++
			res.errs++
			res.errsByStatus[statusKey(err)]++
			if res.firstErr == "" {
				res.firstErr = err.Error()
			}
		}
		res.perOp[kind] = st
	}
	if w.replicas != nil {
		res.client = w.replicas.Metrics()
	}
	return res
}

// statusKey buckets an operation error for the by-status breakdown.
func statusKey(err error) string {
	var ae *provclient.APIError
	if errors.As(err, &ae) {
		return strconv.Itoa(ae.Status)
	}
	return "transport"
}

// noteSlow keeps the worker's top-slowestKeep operations, descending.
func (r *workerResult) noteSlow(op string, d time.Duration, trace string) {
	ms := float64(d) / float64(time.Millisecond)
	if len(r.slowest) == slowestKeep && ms <= r.slowest[slowestKeep-1].Ms {
		return
	}
	r.slowest = append(r.slowest, SlowOp{Op: op, Ms: ms, Trace: trace})
	sort.Slice(r.slowest, func(i, j int) bool { return r.slowest[i].Ms > r.slowest[j].Ms })
	if len(r.slowest) > slowestKeep {
		r.slowest = r.slowest[:slowestKeep]
	}
}

// pickOp chooses the n-th operation kind for this worker per the
// scenario mix, returning the documents it will ingest on success.
func (w *workerConfig) pickOp(n int) (string, int) {
	switch w.cfg.Scenario {
	case IngestHeavy:
		return "upload", w.cfg.BatchSize
	case LineageHeavy:
		return "lineage", 0
	case HotDoc:
		if n%8 == 0 {
			return "upload-hot", 1
		}
		return "lineage", 0
	case Chaos:
		if n%4 == 0 {
			return "upload-acked", 1
		}
		return "lineage", 0
	case ReadCacheHeavy:
		return "lineage", 0
	default: // Mixed
		if n%8 == 0 {
			return "upload", w.cfg.BatchSize
		}
		return "lineage", 0
	}
}

// isShed reports whether err is a 429 admission refusal.
func isShed(err error) bool {
	var apiErr *provclient.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
}

// execOp performs one operation, recording chaos-scenario acks in res.
// ctx carries the operation's trace so every request (including hedges
// and failovers) is stamped with one ID. On success it also reports the
// wire bytes the operation uploaded, feeding the ingest-bytes tally.
func (w *workerConfig) execOp(ctx context.Context, kind string, n int, res *workerResult) (int64, error) {
	switch kind {
	case "upload-acked":
		id := fmt.Sprintf("chaos-w%d-n%d", w.id, n)
		if err := w.client.UploadCtx(ctx, id, w.doc); err != nil {
			return 0, err
		}
		res.acked = append(res.acked, id)
		return int64(w.docBytes), nil
	case "upload":
		batch := make(map[string]*prov.Document, w.cfg.BatchSize)
		var wire int64
		for i := 0; i < w.cfg.BatchSize; i++ {
			id := fmt.Sprintf("w%d-n%d-i%d", w.id, n, i)
			batch[id] = w.doc
			wire += int64(w.lineBase + len(id))
		}
		if w.cfg.BatchSize == 1 { // comparison mode: the single-PUT path
			for id, d := range batch {
				return int64(w.docBytes), w.client.UploadCtx(ctx, id, d)
			}
		}
		return wire, w.client.UploadBatchCtx(ctx, batch)
	case "upload-hot":
		return int64(w.docBytes), w.client.UploadCtx(ctx, w.hot[w.rng.Intn(len(w.hot))], w.doc)
	case "lineage":
		id := w.seedIDs[w.rng.Intn(len(w.seedIDs))]
		switch {
		case w.cfg.Scenario == ReadCacheHeavy:
			// A key set small enough that the read cache can hold every
			// response: after one compulsory miss per id, hits dominate.
			id = w.hot[w.rng.Intn(len(w.hot))]
		case w.cfg.Scenario == HotDoc && w.rng.Float64() < 0.9:
			id = w.hot[w.rng.Intn(len(w.hot))]
		}
		var nodes []prov.QName
		var err error
		if w.replicas != nil {
			nodes, err = w.replicas.LineageCtx(ctx, id, w.leaf, "ancestors", 0)
		} else {
			nodes, err = w.client.LineageCtx(ctx, id, w.leaf, "ancestors", 0)
		}
		if err != nil {
			return 0, err
		}
		if len(nodes) == 0 {
			return 0, fmt.Errorf("loadgen: empty lineage for %s", id)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("loadgen: unknown op %q", kind)
	}
}

// summarize sorts the merged latencies and extracts percentiles.
func summarize(lat []time.Duration) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return LatencySummary{
		P50Ms: ms(pct(0.50)),
		P90Ms: ms(pct(0.90)),
		P99Ms: ms(pct(0.99)),
		MaxMs: ms(lat[len(lat)-1]),
	}
}

// String renders the report for terminals.
func (r Report) String() string {
	s := fmt.Sprintf("scenario=%s workers=%d batch=%d elapsed=%.2fs\n",
		r.Scenario, r.Concurrency, r.BatchSize, r.DurationSecs)
	s += fmt.Sprintf("ops=%d (%.1f ops/s)  docs=%d (%.1f docs/s)  errors=%d\n",
		r.Ops, r.OpsPerSec, r.DocsIngested, r.DocsPerSec, r.Errors)
	s += fmt.Sprintf("ingest=%d B (%.1f KB/s)", r.IngestBytes, r.IngestBytesPerSec/1024)
	if r.JournalBytes > 0 {
		s += fmt.Sprintf("  journal=%d B (%.1f KB/s)  wal/wire=%.2fx",
			r.JournalBytes, r.JournalBytesPerSec/1024,
			float64(r.JournalBytes)/float64(max(r.IngestBytes, 1)))
	}
	s += "\n"
	s += fmt.Sprintf("latency p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
		r.Latency.P50Ms, r.Latency.P90Ms, r.Latency.P99Ms, r.Latency.MaxMs)
	if r.Scenario == Chaos {
		s += fmt.Sprintf("chaos: shed=%d acked=%d acked_lost=%d\n", r.Shed, r.AckedWrites, r.AckedLost)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		s += fmt.Sprintf("cache: hits=%d misses=%d hit_ratio=%.3f\n",
			r.CacheHits, r.CacheMisses, r.CacheHitRatio)
	}
	for _, k := range sortedOpKinds(r.PerOp) {
		v := r.PerOp[k]
		s += fmt.Sprintf("  %-12s %6d ops  %d errors\n", k, v.Count, v.Errors)
	}
	if len(r.ErrorsByStatus) > 0 {
		keys := make([]string, 0, len(r.ErrorsByStatus))
		for k := range r.ErrorsByStatus {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s += "errors by status:"
		for _, k := range keys {
			s += fmt.Sprintf(" %s=%d", k, r.ErrorsByStatus[k])
		}
		s += "\n"
	}
	if r.Client != nil {
		s += fmt.Sprintf("client: breaker_opens=%d breaker_closes=%d hedges=%d hedge_wins=%d failovers=%d\n",
			r.Client.BreakerOpens, r.Client.BreakerCloses, r.Client.Hedges, r.Client.HedgeWins, r.Client.Failovers)
	}
	if r.Server != nil {
		s += fmt.Sprintf("server: sheds=%.0f encode_errors=%.0f bundle_freezes=%.0f\n",
			r.Server.Sheds, r.Server.EncodeErrors, r.Server.BundleFreezes)
	}
	// Slow operations print as ready-to-paste lookups: the server's
	// flight recorder always samples slow requests, so the full span
	// breakdown is one command away.
	for _, so := range r.Slowest {
		if r.BaseURL != "" {
			s += fmt.Sprintf("slow: %-12s %8.2fms  yprov-debug -url %s trace %s\n",
				so.Op, so.Ms, r.BaseURL, so.Trace)
		} else {
			s += fmt.Sprintf("slow: %-12s %8.2fms  trace=%s\n", so.Op, so.Ms, so.Trace)
		}
	}
	if r.FirstError != "" {
		s += "first error: " + r.FirstError + "\n"
	}
	return s
}

func sortedOpKinds(m map[string]OpStats) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
