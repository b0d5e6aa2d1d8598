package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/provstore"
	"repro/internal/wal"
)

// ErrFsyncMismatch is the durability guard: a follower running with
// fsync off behind a primary running with fsync on would acknowledge
// records it can lose to power loss — the replica would silently be
// less safe than the history it claims to hold.
var ErrFsyncMismatch = errors.New("repl: primary journals with fsync but this follower does not; start the follower with fsync enabled (or the primary without)")

// ErrLocalAhead reports a follower whose local history extends past the
// primary's log — the signature of a primary that crashed and lost its
// un-fsynced tail, or of pointing a follower at the wrong primary.
// Replication halts rather than rewrite either history.
var ErrLocalAhead = errors.New("repl: local state is ahead of the primary's log")

// FollowerConfig parameterizes a follower's apply loop. Zero values
// select defaults.
type FollowerConfig struct {
	// PrimaryURL is the primary's base URL (required).
	PrimaryURL string
	// Token is the cluster bearer token, presented on ack POSTs.
	Token string
	// ID identifies this follower in acks and primary-side status
	// (default: the process hostname).
	ID string
	// Fsync must mirror the local store's journal fsync mode; it powers
	// the ErrFsyncMismatch guard.
	Fsync bool
	// AckEvery bounds how many applied records may pass between
	// progress acks (default 512).
	AckEvery int
	// AckInterval bounds how long applied progress may go unreported
	// (default 2s).
	AckInterval time.Duration
	// StatusInterval is the primary status poll cadence driving the lag
	// figures in Status (default 2s).
	StatusInterval time.Duration
	// RetryBase/RetryMax shape the reconnect backoff after a stream
	// failure (defaults 250ms / 15s, exponential, reset on progress).
	RetryBase time.Duration
	RetryMax  time.Duration
	// StaleAfter is how long the follower may go without ANY successful
	// primary contact (stream progress or status poll) before Status
	// reports Stale — which degrades /healthz even though the lag
	// figures, frozen at the last contact, still look small (default
	// 30s). A partitioned replica must not keep passing health checks
	// on stale arithmetic.
	StaleAfter time.Duration
	// Logger receives connection lifecycle lines (default: discarded).
	Logger *log.Logger
	// OnAnomaly, when set, is notified of replication anomalies worth a
	// diagnostic snapshot: the halt-worthy guards (fsync mismatch, local
	// history ahead of the primary, apply failures) fire immediately;
	// ordinary stream failures fire once when they cross
	// anomalyFailThreshold consecutive attempts. Called from the apply
	// loop — keep it fast and non-blocking.
	OnAnomaly func(reason string)
}

// anomalyFailThreshold is the consecutive-stream-failure count at
// which OnAnomaly fires for otherwise ordinary connection errors: low
// enough to catch a partition while the evidence is fresh, high
// enough to ignore a primary restart.
const anomalyFailThreshold = 5

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.ID == "" {
		if host, err := os.Hostname(); err == nil {
			c.ID = host
		} else {
			c.ID = "follower"
		}
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 512
	}
	if c.AckInterval <= 0 {
		c.AckInterval = 2 * time.Second
	}
	if c.StatusInterval <= 0 {
		c.StatusInterval = 2 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 15 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Follower drives a read-only replica store: it connects to the
// primary's stream, applies records through the store's replication
// path, acknowledges durable progress, and reconnects with backoff
// whenever either side of the connection dies. Create with NewFollower,
// start with Run (blocking; usually `go f.Run()`), stop with Stop.
type Follower struct {
	store *provstore.Store
	cfg   FollowerConfig

	// streamClient has no overall timeout (streams are indefinite);
	// ctl is for short status/ack calls.
	streamClient *http.Client
	ctl          *http.Client

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	ctx      context.Context
	cancel   context.CancelFunc

	// rng jitters the reconnect backoff; only Run's goroutine draws
	// from it.
	rng *rand.Rand

	mu             sync.Mutex
	connected      bool
	lastErr        string
	consecFails    uint64 // failed stream attempts since the last applied record
	durableSeq     uint64
	primaryLastSeq uint64
	lagBytes       int64
	lastContact    time.Time // last successful primary exchange

	// reconnects counts stream sessions that ended and went back
	// through the retry loop; appliedRecs counts replicated records
	// applied. Exposed via RegisterObs.
	reconnects  obs.Counter
	appliedRecs obs.Counter
}

// NewFollower builds the apply loop over an Open'd follower store.
func NewFollower(store *provstore.Store, cfg FollowerConfig) (*Follower, error) {
	if !store.Follower() {
		return nil, fmt.Errorf("repl: store was not opened with Durability.Follower")
	}
	if cfg.PrimaryURL == "" {
		return nil, fmt.Errorf("repl: FollowerConfig.PrimaryURL is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		store:        store,
		cfg:          cfg.withDefaults(),
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
		streamClient: &http.Client{},
		ctl:          &http.Client{Timeout: 5 * time.Second},
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		ctx:          ctx,
		cancel:       cancel,
		lastContact:  time.Now(), // boot counts as contact until proven otherwise
	}
	// Installed before Run starts, so the apply loop observes it safely.
	// Records that carried a trace ID surface it in the apply log — the
	// last hop of end-to-end request tracing.
	store.SetApplyObserver(func(seq uint64, op, trace string) {
		f.appliedRecs.Inc()
		if trace != "" {
			f.cfg.Logger.Printf("repl: follower %s applied seq=%d op=%s trace=%s", f.cfg.ID, seq, op, trace)
		}
	})
	return f, nil
}

// RegisterObs exposes the follower's replication instruments on reg:
// lag gauges (records + bytes), stream connectivity, durable progress,
// and reconnect/apply counters. Nil-safe on reg.
func (f *Follower) RegisterObs(reg *obs.Registry) {
	reg.RegisterGaugeFunc("yprov_repl_lag_records",
		"Records the follower trails the primary's committed tail by.", nil,
		func() float64 { return float64(f.Status().FollowerLag) })
	reg.RegisterGaugeFunc("yprov_repl_lag_bytes",
		"Journal bytes the follower trails the primary by.", nil,
		func() float64 { return float64(f.Status().FollowerLagByte) })
	reg.RegisterGaugeFunc("yprov_repl_connected",
		"1 while the replication stream is up.", nil,
		func() float64 {
			if f.Status().Connected {
				return 1
			}
			return 0
		})
	reg.RegisterGaugeFunc("yprov_repl_durable_seq",
		"Highest replicated sequence durable in the local journal.", nil,
		func() float64 { return float64(f.Status().DurableSeq) })
	reg.RegisterCounter("yprov_repl_reconnects_total",
		"Stream sessions that ended and re-entered the retry loop.", nil, &f.reconnects)
	reg.RegisterCounter("yprov_repl_applied_records_total",
		"Replicated records applied to the local store.", nil, &f.appliedRecs)
}

// Run connects and applies until Stop. It never returns an error —
// every failure is recorded in Status, logged, and retried with capped
// exponential backoff, because a replica's job is to outlive its
// primary's restarts.
func (f *Follower) Run() {
	defer close(f.done)
	f.mu.Lock()
	f.durableSeq = f.store.AppliedSeq() // recovered local state is durable
	f.mu.Unlock()
	go f.pollStatus()

	delay := f.cfg.RetryBase
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		progressed, err := f.streamOnce()
		f.reconnects.Inc()
		if progressed {
			delay = f.cfg.RetryBase
		}
		// Jitter over [delay/2, delay]: a primary restart disconnects
		// every follower at once, and identical deterministic backoff
		// would reconnect them as one synchronized thundering herd.
		wait := delay/2 + time.Duration(f.rng.Int63n(int64(delay/2)+1))
		if err != nil {
			f.setErr(err)
			f.cfg.Logger.Printf("repl: follower %s: %v (retrying in %s)", f.cfg.ID, err, wait.Round(time.Millisecond))
		}
		select {
		case <-f.stop:
			return
		case <-time.After(wait):
		}
		if delay *= 2; delay > f.cfg.RetryMax {
			delay = f.cfg.RetryMax
		}
	}
}

// Stop ends the apply loop and waits for it to wind down.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.cancel() // aborts an in-flight stream request
	})
	<-f.done
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err.Error()
	f.consecFails++
	fails := f.consecFails
	f.mu.Unlock()
	if f.cfg.OnAnomaly == nil {
		return
	}
	// Halt-worthy guards are anomalous on first sight; garden-variety
	// stream failures only once they persist past the backoff a primary
	// restart needs.
	halting := errors.Is(err, ErrFsyncMismatch) || errors.Is(err, ErrLocalAhead) ||
		strings.Contains(err.Error(), "apply seq")
	if halting || fails == anomalyFailThreshold {
		f.cfg.OnAnomaly(err.Error())
	}
}

// noteContact stamps a successful primary exchange for staleness
// tracking.
func (f *Follower) noteContact() {
	f.mu.Lock()
	f.lastContact = time.Now()
	f.mu.Unlock()
}

// Status reports the follower's replication state for /stats and the
// health check.
func (f *Follower) Status() *Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &Status{
		Role:                RoleFollower,
		Fsync:               f.cfg.Fsync,
		PrimaryURL:          f.cfg.PrimaryURL,
		AppliedSeq:          f.store.AppliedSeq(),
		DurableSeq:          f.durableSeq,
		PrimaryLastSeq:      f.primaryLastSeq,
		FollowerLagByte:     f.lagBytes,
		Connected:           f.connected,
		LastStreamError:     f.lastErr,
		ConsecutiveFailures: f.consecFails,
		ContactAgeSecs:      time.Since(f.lastContact).Seconds(),
	}
	if st.PrimaryLastSeq > st.AppliedSeq {
		st.FollowerLag = st.PrimaryLastSeq - st.AppliedSeq
	}
	// The lag figures freeze at the last successful contact, so a
	// partitioned follower must self-report stale rather than let small
	// stale numbers pass health checks.
	st.Stale = time.Since(f.lastContact) > f.cfg.StaleAfter
	return st
}

// streamOnce runs one stream connection to completion: fsync handshake,
// catch-up, live tail. progressed reports whether any record was
// applied (resets the reconnect backoff).
func (f *Follower) streamOnce() (progressed bool, err error) {
	from := f.store.AppliedSeq()
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	q.Set("follower", f.cfg.ID)
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.cfg.PrimaryURL+PathStream+"?"+q.Encode(), nil)
	if err != nil {
		return false, err
	}
	resp, err := f.streamClient.Do(req)
	if err != nil {
		return false, fmt.Errorf("connect %s: %w", f.cfg.PrimaryURL, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return false, f.goneError(resp, from)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("stream: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if resp.Header.Get(HeaderFsync) == "true" && !f.cfg.Fsync {
		return false, ErrFsyncMismatch
	}
	if last, err := strconv.ParseUint(resp.Header.Get(HeaderLastSeq), 10, 64); err == nil {
		if last < from {
			return false, fmt.Errorf("%w: local seq %d, primary tail %d", ErrLocalAhead, from, last)
		}
		f.mu.Lock()
		f.primaryLastSeq = last
		f.mu.Unlock()
	}

	f.mu.Lock()
	f.connected = true
	f.lastErr = ""
	f.lastContact = time.Now()
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.connected = false
		f.mu.Unlock()
	}()
	f.cfg.Logger.Printf("repl: follower %s streaming from %s at seq %d", f.cfg.ID, f.cfg.PrimaryURL, from)

	sc := wal.NewStreamScanner(resp.Body)
	var pending wal.Ticket // last uncommitted apply ticket of the burst
	var staged bool
	sinceAck := 0
	lastAck := time.Now()
	commitAndAck := func(force bool) error {
		if staged {
			if err := pending.Commit(); err != nil {
				return fmt.Errorf("local journal commit: %w", err)
			}
			staged = false
			seq := f.store.AppliedSeq()
			f.mu.Lock()
			f.durableSeq = seq
			f.mu.Unlock()
		}
		if force || sinceAck >= f.cfg.AckEvery || time.Since(lastAck) >= f.cfg.AckInterval {
			f.ack()
			sinceAck = 0
			lastAck = time.Now()
		}
		return nil
	}
	for {
		rec, err := sc.Next()
		if err != nil {
			cerr := commitAndAck(true)
			if errors.Is(err, io.EOF) {
				// Primary closed the stream (shutdown or repl stop): not
				// an error in itself; reconnect after backoff.
				return progressed, cerr
			}
			if cerr != nil {
				err = fmt.Errorf("%v (and %v)", err, cerr)
			}
			return progressed, err
		}
		if rec.Seq == f.store.AppliedSeq()+1 {
			// Records are landing again. The count is cleared before the
			// apply moves AppliedSeq, so that no reader sees this record
			// applied beside the failures that came before it; the live
			// stream may outlast Run.
			f.mu.Lock()
			f.consecFails = 0
			f.mu.Unlock()
		}
		t, applied, err := f.store.ApplyReplicated(rec)
		if err != nil {
			_ = commitAndAck(true)
			return progressed, fmt.Errorf("apply seq %d: %w", rec.Seq, err)
		}
		if applied {
			pending, staged = t, true
			progressed = true
			sinceAck++
			f.noteContact()
		}
		// Group local durability with the stream's natural bursts: only
		// fsync (and ack) when no further frame is already buffered, so
		// catch-up costs one commit per network read, not per record.
		if !sc.Buffered() {
			if err := commitAndAck(false); err != nil {
				return progressed, err
			}
		}
	}
}

// goneError decodes a 410 (compacted) response. A fresh follower never
// sees this (bootstrap fetches the snapshot first); hitting it on a
// resume means this replica was down long enough for the primary to
// compact past its cursor, and the operator must re-bootstrap.
func (f *Follower) goneError(resp *http.Response, from uint64) error {
	snapSeq := resp.Header.Get(HeaderSnapshotSeq)
	return fmt.Errorf("repl: primary compacted past our cursor %d (its snapshot covers seq %s): "+
		"this replica is too stale to catch up incrementally — delete its data dir and restart to re-bootstrap", from, snapSeq)
}

// ack POSTs the durable high-water mark to the primary, best-effort.
func (f *Follower) ack() {
	f.mu.Lock()
	seq := f.durableSeq
	f.mu.Unlock()
	body, _ := json.Marshal(ackBody{Follower: f.cfg.ID, Seq: seq})
	req, err := http.NewRequest(http.MethodPost, f.cfg.PrimaryURL+PathAck, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if f.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+f.cfg.Token)
	}
	resp, err := f.ctl.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// pollStatus periodically fetches the primary's status to keep the lag
// figures fresh even while the stream is idle or down.
func (f *Follower) pollStatus() {
	tick := time.NewTicker(f.cfg.StatusInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
		st, err := FetchPrimaryStatus(f.ctl, f.cfg.PrimaryURL, f.store.AppliedSeq())
		if err != nil {
			continue // stream errors already cover unreachability
		}
		f.mu.Lock()
		f.primaryLastSeq = st.LastSeq
		f.lagBytes = st.LagBytes
		f.lastContact = time.Now()
		f.mu.Unlock()
	}
}

// FetchPrimaryStatus GETs a primary's replication status, with lag
// fields computed against from when from > 0 is meaningful to the
// caller. Shared by the follower's poll loop and yprov-server's boot
// checks.
func FetchPrimaryStatus(c *http.Client, primaryURL string, from uint64) (*Status, error) {
	if c == nil {
		c = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := c.Get(primaryURL + PathStatus + "?from=" + strconv.FormatUint(from, 10))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("repl: status: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Bootstrap prepares an empty follower data directory: when dir holds
// no WAL state, it fetches the primary's latest snapshot and writes it
// as a local snapshot file, so the subsequent provstore.Open restores
// the snapshot and the stream only has to deliver the tail. Directories
// with existing state are left alone (restart resumes from local WAL).
// id is the follower's identity (FollowerConfig.ID): announcing it here
// registers the bootstrap with the primary so its compaction floor
// holds the snapshot tail until the stream connects.
// Returns the snapshot sequence installed (0 = none needed/available).
func Bootstrap(dir, primaryURL, id string) (uint64, error) {
	has, err := wal.HasState(dir)
	if err != nil {
		return 0, err
	}
	if has {
		return 0, nil
	}
	c := &http.Client{Timeout: 5 * time.Minute} // snapshots can be large
	q := url.Values{}
	if id != "" {
		q.Set("follower", id)
	}
	resp, err := c.Get(primaryURL + PathSnapshot + "?" + q.Encode())
	if err != nil {
		return 0, fmt.Errorf("repl: bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, nil // primary never snapshotted; stream from 0
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("repl: bootstrap: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotSeq), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: bootstrap: bad %s header: %w", HeaderSnapshotSeq, err)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("repl: bootstrap: read snapshot: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if err := wal.WriteSnapshotTo(dir, seq, payload); err != nil {
		return 0, err
	}
	return seq, nil
}
