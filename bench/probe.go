package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/graphdb"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/provclient"
	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/readcache"
	"repro/internal/wal"
)

// The probe pass times calls into each layer's exported functions
// in-process, on a fixed sample of the run's own inputs, with a span
// around every call (or, for calls too short to time singly, around
// every chunk of them). It runs after the measured part of a traced
// run and gives the per-layer numbers no header or counter exposes:
// what one Closure, one JSON decode, one cache hit costs when nothing
// else is in the way.

// probeBlocks is how many corpus blocks (of batchDocs documents, each
// the full depth mix) the document-level probes sample.
const probeBlocks = 4

// timeCalls runs fn(i) for i in [0,n), chunk calls per span, and
// returns the mean time of one call in nanoseconds.
func (r *runner) timeCalls(name, layer string, n, chunk int, fn func(i int) error) (float64, error) {
	var total time.Duration
	for i := 0; i < n; i += chunk {
		start := time.Now()
		for j := i; j < min(i+chunk, n); j++ {
			if err := fn(j); err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
		}
		d := time.Since(start)
		r.tr.call("probe "+name, layer, start, d)
		total += d
	}
	return float64(total) / float64(n), nil
}

func (r *runner) probe() error {
	done := r.tr.phase("probe")
	defer done()
	for _, step := range []func() error{r.probeCore, r.probeClient, r.probeCodec, r.probeGraph, r.probeCache, r.probeStore} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// trainProbeRuns is how many whole training runs a probe makes: 8 at
// the benchmark's probeOps, fewer in tests.
func (r *runner) trainProbeRuns() int { return max(1, min(8, r.cfg.probeOps/8)) }

// probeCore times the library calls of a training run.
func (r *runner) probeCore() error {
	runs := r.trainProbeRuns()
	dir, err := trainDir(r.cfg.workDir, clients) // beside the clients' directories
	if err != nil {
		return err
	}
	var ph trainPhases
	var out trainOutput
	if _, err := r.timeCalls("core.Run", "core", runs, 1, func(i int) error {
		out, err = simulateRun(dir, "probe", fmt.Sprintf("probe-%d", i), r.cfg.seed+int64(i), &ph)
		return err
	}); err != nil {
		return err
	}
	r.m.set("core.log_metric_ns_per_call", float64(ph.log)/float64(runs*trainLogCalls), "ns")
	r.m.set("core.collect_once_us_per_call", float64(ph.collect)/1e3/float64(runs*trainEpochs*trainSteps), "us")
	r.m.set("core.end_ms_per_run", float64(ph.end)/1e6/float64(runs), "ms")
	r.m.set("core.prov_json_bytes_per_run", float64(len(out.provJSON)), "B")
	r.m.set("zarr.bytes_per_run", float64(out.zarrBytes), "B")
	return nil
}

// probeClient times the library client's cheapest round trip against
// the live server: the floor under every operation's latency.
func (r *runner) probeClient() error {
	c := provclient.New("http://" + r.tgt.addr())
	ns, err := r.timeCalls("provclient.Health", "provclient", r.cfg.probeOps, 1, func(int) error { return c.Health() })
	r.m.set("provclient.roundtrip_us", ns/1e3, "us")
	return err
}

// sampleDocs returns version 0 of the first probeBlocks blocks.
func (r *runner) sampleDocs() []*corpusDoc {
	p := r.plan
	var out []*corpusDoc
	for b := 0; b < min(probeBlocks, len(p.batches)); b++ {
		first := p.blockDocs(b)
		for t := 0; t < batchDocs; t++ {
			out = append(out, &p.corpus.docs[first+clients*t])
		}
	}
	return out
}

// probeCodec times the document codecs, and the in-memory store's
// apply path on the decoded documents.
func (r *runner) probeCodec() error {
	docs := r.sampleDocs()
	parsed := make([]*prov.Document, len(docs))
	bin := make([][]byte, len(docs))
	var jsonBytes, binBytes int
	var err error
	decode, err := r.timeCalls("prov.ParseJSON", "prov", len(docs), 1, func(i int) error {
		parsed[i], err = prov.ParseJSON(docs[i].body[0])
		return err
	})
	if err != nil {
		return err
	}
	encode, err := r.timeCalls("prov.MarshalJSON", "prov", len(docs), 1, func(i int) error {
		b, err := parsed[i].MarshalJSON()
		jsonBytes += len(b)
		return err
	})
	if err != nil {
		return err
	}
	binEncode, _ := r.timeCalls("prov.AppendBinary", "prov", len(docs), 1, func(i int) error {
		bin[i] = prov.AppendBinary(nil, parsed[i])
		binBytes += len(bin[i])
		return nil
	})
	binDecode, err := r.timeCalls("prov.ParseBinary", "prov", len(docs), 1, func(i int) error {
		_, err := prov.ParseBinary(bin[i])
		return err
	})
	if err != nil {
		return err
	}
	r.m.set("prov.json_decode_us_per_doc", decode/1e3, "us")
	r.m.set("prov.json_encode_us_per_doc", encode/1e3, "us")
	r.m.set("prov.binary_encode_us_per_doc", binEncode/1e3, "us")
	r.m.set("prov.binary_decode_us_per_doc", binDecode/1e3, "us")
	r.m.set("prov.binary_bytes_per_json_byte", ratio(float64(binBytes), float64(jsonBytes)), "B/B")

	// In-memory store: validate + graph projection, no journal.
	store := provstore.NewSharded(serverProcs)
	put, err := r.timeCalls("provstore.PutBatch", "provstore", len(docs)/batchDocs, 1, func(b int) error {
		batch := make(map[string]*prov.Document, batchDocs)
		for t := 0; t < batchDocs; t++ {
			batch[docs[b*batchDocs+t].id] = parsed[b*batchDocs+t]
		}
		return store.PutBatch(batch)
	})
	r.m.set("provstore.put_us_per_doc", put/1e3/batchDocs, "us")
	if err != nil {
		return err
	}

	// The journal alone: append the binary records, no fsync.
	dir := filepath.Join(r.cfg.workDir, "probe-wal")
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	appendNS, err := r.timeCalls("wal.Append", "wal", len(bin), 1, func(i int) error {
		_, err := log.Append(bin[i])
		return err
	})
	r.m.set("wal.append_us_per_record", appendNS/1e3, "us")
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeGraph times Graph.Closure from the leaf of chains at the corpus
// depth mix.
func (r *runner) probeGraph() error {
	g := graphdb.New()
	var leaves []graphdb.NodeID
	for _, depth := range depthMix {
		var prev graphdb.NodeID
		for i := 0; i < depth; i++ {
			a, err := g.CreateNode([]string{"Activity"}, nil)
			if err != nil {
				return err
			}
			e, err := g.CreateNode([]string{"Entity"}, nil)
			if err != nil {
				return err
			}
			if i > 0 {
				if _, err := g.CreateRel(a, prev, "USED", nil); err != nil {
					return err
				}
			}
			if _, err := g.CreateRel(e, a, "WASGENERATEDBY", nil); err != nil {
				return err
			}
			prev = e
		}
		leaves = append(leaves, prev)
	}
	ns, err := r.timeCalls("graphdb.Closure", "graphdb", r.cfg.probeOps, 1, func(i int) error {
		if len(g.Closure(leaves[i%len(leaves)], graphdb.Outgoing, "", 0)) == 0 {
			return fmt.Errorf("empty closure")
		}
		return nil
	})
	r.m.set("graphdb.closure_us_per_call", ns/1e3, "us")
	return err
}

// probeCache times Cache.Do on a resident key: the read path's cost
// when the cache already holds the answer.
func (r *runner) probeCache() error {
	c := readcache.New(serverCacheEntries, serverCacheBytes)
	keys := make([]string, hotKeys)
	body := bytes.Repeat([]byte("x"), 512)
	fill := func() (readcache.Entry, error) { return readcache.Entry{Body: body}, nil }
	for i := range keys {
		keys[i] = fmt.Sprintf("lineage\x1fdoc-%04d\x1fex:e11\x1fancestors\x1f1024", i)
		if _, _, err := c.Do(keys[i], 1, fill); err != nil {
			return err
		}
	}
	ns, err := r.timeCalls("readcache.Do", "readcache", r.cfg.probeOps*50, 1000, func(i int) error {
		if _, hit, _ := c.Do(keys[i%len(keys)], 1, fill); !hit {
			return fmt.Errorf("resident key missed")
		}
		return nil
	})
	r.m.set("readcache.do_hit_ns", ns, "ns")
	return err
}

// probeStore recovers a copy of the run's final data directory, the
// way a restart does, then uses the recovered store to time a
// checkpoint, lineage calls and the HTTP handler stack with no socket
// in the way.
func (r *runner) probeStore() error {
	dir := filepath.Join(r.cfg.workDir, "probe-data")
	if err := copyDir(r.dataDir, dir); err != nil {
		return err
	}
	var store *provstore.Store
	recover, err := r.timeCalls("provstore.Open", "provstore", 1, 1, func(int) error {
		var err error
		// Snapshots off: the probes below must not race a checkpoint.
		store, err = provstore.Open(dir, provstore.Durability{Fsync: true, SnapshotEvery: -1, Shards: serverProcs})
		return err
	})
	if err != nil {
		return err
	}
	defer store.Close()
	docs := store.Count()
	r.m.set("provstore.recover_ms", recover/1e6, "ms")
	r.m.set("provstore.recover_us_per_doc", ratio(recover/1e3, float64(docs)), "us")

	// Lineage over uniformly drawn cold keys.
	p := r.plan
	rng := rand.New(rand.NewSource(r.cfg.seed))
	lineage, err := r.timeCalls("provstore.Lineage", "provstore", r.cfg.probeOps, 1, func(int) error {
		d := &p.corpus.docs[rng.Intn(len(p.corpus.docs))]
		dir := provstore.Ancestors
		if rng.Intn(2) == 1 {
			dir = provstore.Descendants
		}
		_, err := store.Lineage(d.id, prov.QName(fmt.Sprintf("ex:e%d", rng.Intn(d.depth))), dir, 0)
		return err
	})
	if err != nil {
		return err
	}
	r.m.set("provstore.lineage_us_per_call", lineage/1e3, "us")

	if err := r.probeHandler(store, dir); err != nil {
		return err
	}

	checkpoint, err := r.timeCalls("provstore.Checkpoint", "provstore", 1, 1, func(int) error { return store.Checkpoint() })
	if err != nil {
		return err
	}
	r.m.set("provstore.checkpoint_ms", checkpoint/1e6, "ms")
	var snap int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".snap") && info.Size() > snap {
			snap = info.Size()
		}
	}
	r.m.set("provstore.snapshot_mb", float64(snap)/1e6, "MB")
	return nil
}

// probeHandler replays a sample of the workload's own operations
// through the service's handler stack with a recorder instead of a
// socket. Handler time minus the time its span header attributes to
// the layers below is the service's self time. The journal growth the
// sample causes, with snapshots off, is an exact count of journal
// bytes per user byte.
func (r *runner) probeHandler(store *provstore.Store, dir string) error {
	p := r.plan
	svc := provservice.New(store, provservice.WithReadCache(serverCacheEntries, serverCacheBytes))
	n := r.cfg.probeOps
	switch p.workload {
	case "ingest_batch":
		n = min(n, 2*len(p.batches)/clients) // two laps of client 0's blocks
	case "train_run":
		n = r.trainProbeRuns()
	}
	// Build the requests first, so that only the handler is timed.
	cl := &client{id: 0, p: p, rng: rand.New(rand.NewSource(clientSeed(p.seed, 0)))}
	reqs := make([]*http.Request, n)
	var userBytes int64
	for ; cl.n < n; cl.n++ {
		spec := cl.next()
		var req request
		if spec.class == classTrain {
			out, err := simulateRun(filepath.Join(r.cfg.workDir, "train-probe"), trainExp(0), trainRunName(0, cl.n), p.seed+int64(cl.n), nil)
			if err != nil {
				return err
			}
			req = request{head: bodyHead("PUT", "/api/v0/documents/"+trainDocID(0, cl.n), len(out.provJSON)), body: out.provJSON}
		} else {
			req = p.wire(spec)
			cl.applied(spec)
		}
		var err error
		reqs[cl.n], err = http.ReadRequest(bufio.NewReader(io.MultiReader(bytes.NewReader(req.head), bytes.NewReader(req.body))))
		if err != nil {
			return err
		}
		userBytes += int64(len(req.body))
	}
	diskBefore, err := dirBytes(dir)
	if err != nil {
		return err
	}
	var children time.Duration
	ns, err := r.timeCalls("provservice.ServeHTTP", "provservice", n, 1, func(i int) error {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, reqs[i])
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			return fmt.Errorf("%s: HTTP %d: %s", reqs[i].URL.Path, rec.Code, truncate(rec.Body.Bytes(), 200))
		}
		for _, nd := range parseSpans(rec.Header().Get(obs.SpanHeader)) {
			if nd.name != "fill" { // nested in cache
				children += nd.dur
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	diskAfter, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.m.set("provservice.handler_us_per_op", ns/1e3, "us")
	r.m.set("provservice.self_us_per_op", max(0, ns-float64(children)/float64(n))/1e3, "us")
	r.m.set("wal.journal_bytes_per_user_byte", ratio(float64(diskAfter-diskBefore), float64(userBytes)), "B/B")
	return nil
}

// copyDir copies the regular files of src into a new directory dst,
// leaving out the journal's LOCK file, which belongs to the server
// still holding it.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
