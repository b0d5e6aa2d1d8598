package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/provclient"
)

// opClass buckets operations for the latency breakdown.
type opClass uint8

const (
	classReadHot opClass = iota
	classReadCold
	classWrite // single-document PUT
	classBatch // 32-document NDJSON POST
	classTrain // library run + upload
	numClasses
)

// verifyEvery is how often a response is decoded and checked in full;
// the others are checked by status (and, for writes, the X-Yprov-Seq
// token), so the generator stays cheap next to the server.
const verifyEvery = 64

// opResult is the outcome of one operation. err set means the
// operation failed: it counts in attempted but yields no latency
// sample and no throughput.
type opResult struct {
	class opClass
	err   error
	docs  int   // documents the server acknowledged
	bytes int64 // PROV-JSON bytes of those documents
	// Traced runs keep the server's own account of the request.
	traceID, spans, cache string
	// train_run splits its latency into the library part and the upload.
	run, upload time.Duration
}

// workloadNames is the contract with BENCHMARK.json.
var workloadNames = []string{"train_run", "ingest_batch", "lineage_hot", "mixed_rw"}

// request is a pre-encoded HTTP request.
type request struct{ head, body []byte }

// plan holds everything the timed loop sends, encoded before the
// server is booted, plus the bookkeeping that lets every answer be
// checked: which version of each document is live, and what the
// server acknowledged when.
type plan struct {
	workload string
	seed     int64
	corpus   *corpus
	trace    bool
	workDir  string

	hot      []request        // one lineage GET per hot key
	puts     [][]byte         // PUT head per document (both versions have one length)
	batches  [][2]request     // per block of batchDocs documents, per version
	cumDepth []int            // prefix sums of depths, for uniform cold keys
	version  []uint8          // live version per document; a document is only written by its owning client
	runSizes [clients][]int64 // train_run: live body size per upload id
}

// block b holds the documents {b%clients + clients*((b/clients)*batchDocs+t)}.
func (p *plan) blockDocs(b int) (first int) {
	return b%clients + clients*(b/clients)*batchDocs
}

func newPlan(workload string, seed int64, corpusDocs int, workDir string) *plan {
	c := newCorpus(seed, corpusDocs)
	p := &plan{workload: workload, seed: seed, corpus: c, workDir: workDir,
		version: make([]uint8, len(c.docs))}
	for _, di := range c.hot {
		d := &c.docs[di]
		p.hot = append(p.hot, request{head: getHead(lineagePath(d.id, d.depth-1, true))})
	}
	p.puts = make([][]byte, len(c.docs))
	p.cumDepth = make([]int, len(c.docs)+1)
	for i := range c.docs {
		d := &c.docs[i]
		p.puts[i] = bodyHead("PUT", "/api/v0/documents/"+d.id, len(d.body[0]))
		p.cumDepth[i+1] = p.cumDepth[i] + d.depth
	}
	p.batches = make([][2]request, len(c.docs)/batchDocs)
	for b := range p.batches {
		for v := 0; v < 2; v++ {
			if v == 1 && workload != "ingest_batch" {
				continue // only ingest_batch rewrites whole blocks
			}
			var body bytes.Buffer
			first := p.blockDocs(b)
			for t := 0; t < batchDocs; t++ {
				d := &c.docs[first+clients*t]
				// provclient.EncodeBatchLine's framing, spelled out so the
				// input bytes do not depend on the code under test.
				body.WriteString(`{"id":"` + d.id + `","doc":`)
				body.Write(d.body[v])
				body.WriteString("}\n")
			}
			p.batches[b][v] = request{head: bodyHead("POST", "/api/v0/documents:batch", body.Len()), body: body.Bytes()}
		}
	}
	for c := range p.runSizes {
		p.runSizes[c] = make([]int64, trainIDSpace)
	}
	return p
}

// liveBytes is the PROV-JSON size of every document the server should
// hold now.
func (p *plan) liveBytes() int64 {
	n := p.corpus.liveBytes
	for c := range p.runSizes {
		for _, sz := range p.runSizes[c] {
			n += sz
		}
	}
	return n
}

func lineagePath(id string, k int, ancestors bool) string {
	dir := "descendants"
	if ancestors {
		dir = "ancestors"
	}
	return "/api/v0/documents/" + id + "/lineage?node=ex:e" + strconv.Itoa(k) + "&direction=" + dir + "&depth=0"
}

// client is one closed-loop client: one goroutine, one keep-alive
// connection, the next request sent only when the last one is answered.
type client struct {
	id   int
	p    *plan
	conn *conn
	api  *provclient.Client // train_run uploads go through the library's client
	rng  *rand.Rand
	n    int    // operations started, warm-up included
	seq  uint64 // highest X-Yprov-Seq seen
	blk  int    // ingest_batch: next block of this client
	dir  string // train_run: output directory
	ref  *refMeter

	rec recorder
}

// recorder collects one phase's results for one client.
type recorder struct {
	lat         []int64 // ns, successful operations only
	class       []opClass
	attempted   int
	failed      int
	firstErr    error
	docs        int
	bytes       int64
	elapsed     time.Duration // first start to last completion
	acks        []ack
	run, upload time.Duration
	ops         []tracedOp // traced runs only
	respBytes   int        // traced runs only: response body bytes
	ends        []int64    // completion time of each successful operation, ns since the phase began
}

// ack remembers an acknowledged write for the post-crash read-back.
type ack struct {
	at    time.Time
	class opClass
	ref   int // document index, block index, or train_run op number*clients + client
}

// tracedOp is one request as the traced run keeps it.
type tracedOp struct {
	start, end            time.Duration // since the phase began
	class                 opClass
	traceID, spans, cache string
}

func newClient(p *plan, id int, addr string) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	cl := &client{id: id, p: p, conn: c, api: provclient.New("http://" + addr),
		rng: rand.New(rand.NewSource(clientSeed(p.seed, id)))}
	if p.workload == "train_run" {
		if cl.dir, err = trainDir(p.workDir, id); err != nil {
			return nil, err
		}
	}
	if cl.ref, err = newRefMeter(p.workDir, fmt.Sprintf("ref-%d", id)); err != nil {
		return nil, err
	}
	return cl, nil
}

func (cl *client) close() {
	cl.conn.close()
	cl.ref.close()
}

// loop runs operations back to back until the deadline and records
// them, spending refShare of the time between operations on the
// reference task. It is both the warm-up and the timed window.
func (cl *client) loop(d time.Duration) {
	cl.rec = recorder{}
	rec := &cl.rec
	begin := time.Now()
	cl.ref.reset(begin)
	for {
		start := time.Now()
		if start.Sub(begin) >= d {
			break
		}
		res := cl.op()
		end := time.Now()
		cl.ref.catchUp(end)
		cl.n++
		rec.attempted++
		rec.elapsed = end.Sub(begin)
		if res.err != nil {
			rec.failed++
			if rec.firstErr == nil {
				rec.firstErr = res.err
			}
			continue
		}
		rec.lat = append(rec.lat, int64(end.Sub(start)))
		rec.ends = append(rec.ends, int64(end.Sub(begin)))
		rec.class = append(rec.class, res.class)
		rec.docs += res.docs
		rec.bytes += res.bytes
		rec.run += res.run
		rec.upload += res.upload
		if cl.p.trace {
			rec.ops = append(rec.ops, tracedOp{start: start.Sub(begin), end: end.Sub(begin),
				class: res.class, traceID: res.traceID, spans: res.spans, cache: res.cache})
		}
	}
}

// opSpec names one operation: which request, against which document,
// writing which version. Choosing it consumes the client's random
// stream; sending it does not, so the stream of specs depends on the
// seed alone.
type opSpec struct {
	class     opClass
	hot       int   // classReadHot: index into plan.hot
	doc, k    int   // reads: document and entity index; classWrite: document
	ancestors bool  // reads: direction
	block     int   // classBatch
	version   uint8 // writes: the version being written
}

// next picks the client's next operation.
func (cl *client) next() opSpec {
	p := cl.p
	switch p.workload {
	case "train_run":
		return opSpec{class: classTrain}
	case "ingest_batch":
		// Walk this client's blocks in order, flipping versions each lap.
		b := cl.id + clients*(cl.blk%(len(p.batches)/clients))
		return opSpec{class: classBatch, block: b, version: 1 - p.version[p.blockDocs(b)]}
	case "mixed_rw": // 7 reads per write; reads half hot, half cold
		if cl.n%8 == 7 {
			// Replace one of this client's own documents with its other version.
			di := cl.id + clients*cl.rng.Intn(len(p.corpus.docs)/clients)
			return opSpec{class: classWrite, doc: di, version: 1 - p.version[di]}
		}
		if cl.rng.Intn(2) == 1 {
			// Uniform over (document, entity, direction).
			r := cl.rng.Intn(p.corpus.entities)
			di := sort.SearchInts(p.cumDepth, r+1) - 1
			return opSpec{class: classReadCold, doc: di, k: r - p.cumDepth[di], ancestors: cl.rng.Intn(2) == 0}
		}
	}
	i := cl.rng.Intn(len(p.hot))
	di := p.corpus.hot[i]
	return opSpec{class: classReadHot, hot: i, doc: di, k: p.corpus.docs[di].depth - 1, ancestors: true}
}

// wire returns the bytes spec puts on the connection.
func (p *plan) wire(spec opSpec) request {
	d := &p.corpus.docs[spec.doc]
	switch spec.class {
	case classReadHot:
		return p.hot[spec.hot]
	case classReadCold:
		return request{head: getHead(lineagePath(d.id, spec.k, spec.ancestors))}
	case classWrite:
		return request{head: p.puts[spec.doc], body: d.body[spec.version]}
	default:
		return p.batches[spec.block][spec.version]
	}
}

// applied records that the server acknowledged spec.
func (cl *client) applied(spec opSpec) {
	p := cl.p
	switch spec.class {
	case classWrite:
		p.version[spec.doc] = spec.version
	case classBatch:
		first := p.blockDocs(spec.block)
		for t := 0; t < batchDocs; t++ {
			p.version[first+clients*t] = spec.version
		}
		cl.blk++
	}
}

func (cl *client) op() opResult {
	spec := cl.next()
	switch spec.class {
	case classTrain:
		return cl.trainOp()
	case classWrite, classBatch:
		return cl.write(spec)
	default:
		return cl.read(spec)
	}
}

func (cl *client) read(spec opSpec) opResult {
	res := opResult{class: spec.class}
	d := &cl.p.corpus.docs[spec.doc]
	r, err := cl.conn.do(cl.p.wire(spec).head, nil)
	if err != nil {
		res.err = err
		return res
	}
	cl.note(&res, r)
	if r.status != http.StatusOK {
		res.err = fmt.Errorf("lineage %s e%d: HTTP %d: %s", d.id, spec.k, r.status, truncate(r.body, 200))
	} else if cl.n%verifyEvery == 0 {
		res.err = checkLineage(r.body, d, spec.k, spec.ancestors)
	}
	return res
}

// note copies the server's trace headers when the run is traced.
func (cl *client) note(res *opResult, r reply) {
	if cl.p.trace {
		res.traceID = r.header.Get("X-Yprov-Trace")
		res.spans = r.header.Get("X-Yprov-Spans")
		res.cache = r.header.Get("X-Yprov-Cache")
		cl.rec.respBytes += len(r.body)
	}
}

// checkLineage decodes a lineage answer and compares it with the set
// the chain shape implies.
func checkLineage(body []byte, d *corpusDoc, k int, ancestors bool) error {
	var ans struct {
		Document string   `json:"document"`
		Nodes    []string `json:"nodes"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("lineage %s e%d: %v", d.id, k, err)
	}
	if ans.Document != d.id {
		return fmt.Errorf("lineage %s e%d: answer is for document %q", d.id, k, ans.Document)
	}
	if want := lineageSize(d.depth, k, ancestors); len(ans.Nodes) != want {
		return fmt.Errorf("lineage %s e%d: %d nodes, want %d", d.id, k, len(ans.Nodes), want)
	}
	seen := make(map[string]bool, len(ans.Nodes))
	for _, n := range ans.Nodes {
		if seen[n] || !lineageMember(n, d.depth, k, ancestors) {
			return fmt.Errorf("lineage %s e%d: unexpected node %q", d.id, k, n)
		}
		seen[n] = true
	}
	return nil
}

// checkAck validates a write acknowledgement: 201 Created carrying an
// X-Yprov-Seq journal token no lower than any this client has seen.
func (cl *client) checkAck(r reply) error {
	if r.status != http.StatusCreated {
		return fmt.Errorf("write: HTTP %d: %s", r.status, truncate(r.body, 200))
	}
	seq, err := strconv.ParseUint(r.header.Get("X-Yprov-Seq"), 10, 64)
	if err != nil || seq == 0 {
		return fmt.Errorf("write acknowledged without a journal sequence (X-Yprov-Seq %q)", r.header.Get("X-Yprov-Seq"))
	}
	if seq < cl.seq {
		return fmt.Errorf("write: journal sequence went back from %d to %d", cl.seq, seq)
	}
	cl.seq = seq
	return nil
}

// write sends a single-document PUT or a batchDocs-document NDJSON
// batch and checks the acknowledgement.
func (cl *client) write(spec opSpec) opResult {
	p := cl.p
	req := p.wire(spec)
	res := opResult{class: spec.class}
	r, err := cl.conn.do(req.head, req.body)
	if err != nil {
		res.err = err
		return res
	}
	cl.note(&res, r)
	if res.err = cl.checkAck(r); res.err != nil {
		return res
	}
	ref := spec.doc
	res.docs = 1
	if spec.class == classBatch {
		ref, res.docs = spec.block, batchDocs
		if cl.n%verifyEvery == 0 {
			if res.err = p.checkBatchAck(r.body, spec.block); res.err != nil {
				return res
			}
		}
	}
	cl.applied(spec)
	cl.rec.acks = append(cl.rec.acks, ack{at: time.Now(), class: spec.class, ref: ref})
	res.bytes = int64(len(req.body)) // a batch's NDJSON framing included: it is what the user sent
	return res
}

// checkBatchAck decodes a batch acknowledgement and compares it with
// the block that was sent.
func (p *plan) checkBatchAck(body []byte, block int) error {
	var ans struct {
		Created int      `json:"created"`
		IDs     []string `json:"ids"`
	}
	if err := json.Unmarshal(body, &ans); err != nil || ans.Created != batchDocs || len(ans.IDs) != batchDocs {
		return fmt.Errorf("batch %d: bad acknowledgement %s (%v)", block, truncate(body, 200), err)
	}
	first := p.blockDocs(block)
	for t, id := range ans.IDs {
		if id != p.corpus.docs[first+clients*t].id {
			return fmt.Errorf("batch %d: acknowledged id %q at position %d", block, id, t)
		}
	}
	return nil
}

// trainOp runs one simulated training run through the library and
// uploads its provenance document.
func (cl *client) trainOp() opResult {
	res := opResult{class: classTrain}
	n := cl.n
	start := time.Now()
	out, err := simulateRun(cl.dir, trainExp(cl.id), trainRunName(cl.id, n), cl.p.seed+int64(n), nil)
	if err != nil {
		res.err = err
		return res
	}
	uploadStart := time.Now()
	id := trainDocID(cl.id, n)
	before := cl.api.LastSeq()
	if err := cl.api.UploadRaw(id, out.provJSON); err != nil {
		res.err = err
		return res
	}
	if cl.api.LastSeq() <= before {
		res.err = fmt.Errorf("PUT %s: journal sequence did not advance past %d", id, before)
		return res
	}
	res.run, res.upload = uploadStart.Sub(start), time.Since(uploadStart)
	if n%verifyEvery == 0 {
		// The stored document must hold this very run.
		if err := checkRun(cl.conn, id, cl.id, n); err != nil {
			res.err = err
			return res
		}
	}
	cl.p.runSizes[cl.id][n%trainIDSpace] = int64(len(out.provJSON))
	cl.rec.acks = append(cl.rec.acks, ack{at: time.Now(), class: classTrain, ref: n*clients + cl.id})
	res.docs, res.bytes = 1, int64(len(out.provJSON))
	return res
}

// opStream renders the first n operations of every client as the bytes
// they put on the wire (train_run: the names and seeds that decide
// them), without a server and as if every write were acknowledged.
// Two plans are the same workload exactly when their streams are
// byte-identical; the determinism test hashes this.
func (p *plan) opStream(n int) []byte {
	var out bytes.Buffer
	for id := 0; id < clients; id++ {
		cl := &client{id: id, p: p, rng: rand.New(rand.NewSource(clientSeed(p.seed, id)))}
		for ; cl.n < n; cl.n++ {
			spec := cl.next()
			if spec.class == classTrain {
				fmt.Fprintf(&out, "%s %s %d\n", trainDocID(id, cl.n), trainRunName(id, cl.n), p.seed+int64(cl.n))
				continue
			}
			req := p.wire(spec)
			out.Write(req.head)
			out.Write(req.body)
			cl.applied(spec)
		}
	}
	return out.Bytes()
}

// clientSeed derives a client's random stream from the run's seed.
func clientSeed(seed int64, id int) int64 { return seed*7919 + int64(id) + 1 }
