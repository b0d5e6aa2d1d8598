// Command yprov-server runs the yProv provenance service: a RESTful
// JSON API over an embedded property-graph document store, durably
// backed by a segmented write-ahead log.
//
// Usage:
//
//	yprov-server [-addr :3000] [-token SECRET] [-shards N] [-pprof-addr ADDR]
//	             [-data-dir DIR] [-fsync] [-snapshot-every N]
//	             [-replicate-from URL] [-advertise-addr ADDR] [-max-lag N]
//	             [-max-inflight-writes N] [-shed-latency-target D]
//	             [-request-timeout D]
//	             [-read-cache-entries N] [-read-cache-bytes N] [-bundle-dir DIR]
//
// The store is sharded: documents spread over -shards independent
// graph+lock slices (default GOMAXPROCS, rounded to a power of two) so
// concurrent uploads and queries on different documents never contend.
// A data directory written under any -shards value opens under any
// other — shard placement is re-derived from document ids on recovery.
//
// With -data-dir, every accepted mutation is journaled before it is
// acknowledged and the store recovers snapshot + journal tail on boot —
// including after kill -9 (a torn final record is truncated, not
// fatal). A data directory an earlier build wrote in an older on-disk
// format is refused at boot; `yprov upgrade DIR` converts it offline.
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting requests,
// drain in-flight ones, flush the journal, and exit.
//
// Replication: every journaled server doubles as a replication primary
// (its WAL is streamed verbatim from /api/v0/repl/stream). Started with
// -replicate-from, the server instead runs as a read-only follower: it
// bootstraps from the primary's latest snapshot, tails its log into a
// local WAL copy under -data-dir, rejects mutations with 403 + a
// Location hint, and reports degraded on /healthz once replication lag
// exceeds -max-lag records. A follower refuses to run with -fsync=false
// against an fsync primary — the replica must not silently be less
// durable than the history it acknowledges.
//
// Overload protection: with -max-inflight-writes or
// -shed-latency-target set, admission control sheds new writes with
// 429 + Retry-After once the corresponding signal crosses its
// threshold; reads are never shed, and nothing else answers 429.
// -request-timeout attaches a deadline to every request (repl streams
// exempt) that clients may shorten — never extend — with an
// X-Yprov-Timeout-Ms header; a request whose deadline expires before
// its write is durable gets 503 without consuming journal space.
//
// Observability: GET /metrics serves every registered instrument (HTTP
// route histograms, WAL fsync/commit-queue, shard lock waits,
// admission sheds, replication lag) in Prometheus text format, the
// server's one metrics exposition. Every request carries an
// X-Yprov-Trace ID (client-supplied or minted) that the flight
// recorder, the journal, and follower apply logs share. -pprof-addr
// serves net/http/pprof on a separate listener (keep it private —
// profiles are not for the public API port).
//
// The flight recorder is always on: it retains 256 recently completed
// request traces with span breakdowns (every error, shed and request
// of 250ms or more, and 1 in 16 of the rest), a top-K slow-query log
// per route class, and a rolling window of runtime telemetry, served
// under /api/v0/debug/{traces,slowlog,bundle} (see cmd/yprov-debug).
// The journal's fail-stop latch and replication anomalies freeze a
// diagnostic bundle capturing the moment things went wrong; SIGQUIT
// dumps one to -bundle-dir and keeps serving.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // mounted on -pprof-addr's DefaultServeMux listener only
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/provservice"
	"repro/internal/provstore"
	"repro/internal/repl"
)

func main() {
	addr := flag.String("addr", ":3000", "listen address")
	token := flag.String("token", "", "bearer token required for mutating requests (empty = open)")
	shards := flag.Int("shards", 0, "store shard count, rounded up to a power of two, max 256 (0 = GOMAXPROCS)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it private)")
	dataDir := flag.String("data-dir", "", "write-ahead-logged data directory (empty = in-memory only)")
	fsync := flag.Bool("fsync", true, "fsync the journal before acknowledging mutations (power-loss durability)")
	snapshotEvery := flag.Int("snapshot-every", 256, "mutations between snapshot+compaction cycles (<0 disables)")
	replicateFrom := flag.String("replicate-from", "", "primary base URL; run this server as a read-only follower of it (requires -data-dir)")
	advertiseAddr := flag.String("advertise-addr", "", "address this server is reachable at, used as its follower id in replication acks (default: -addr)")
	maxLag := flag.Uint64("max-lag", 10000, "follower: /healthz reports degraded when replication lag exceeds this many records (0 disables)")
	maxInflightWrites := flag.Int("max-inflight-writes", 0, "shed writes with 429 when this many are already in flight (0 disables)")
	shedLatencyTarget := flag.Duration("shed-latency-target", 0, "shed writes with 429 when the estimated commit wait exceeds this (0 disables)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline; clients may shorten it via X-Yprov-Timeout-Ms (0 disables)")
	readCacheEntries := flag.Int("read-cache-entries", 4096, "max encoded responses held by the seq-invalidated read cache (0 disables caching)")
	readCacheBytes := flag.Int64("read-cache-bytes", 64<<20, "max total body bytes held by the read cache (0 disables caching)")
	bundleDir := flag.String("bundle-dir", "", "directory for SIGQUIT-dumped diagnostic bundles (default: -data-dir, else the working directory)")
	flag.Parse()

	follower := *replicateFrom != ""
	if follower && *dataDir == "" {
		log.Fatalf("-replicate-from requires -data-dir: a follower keeps its own WAL copy so restarts resume from local state")
	}
	followerID := *advertiseAddr
	if followerID == "" {
		followerID = *addr
	}
	if follower {
		// Refuse a configuration that silently weakens durability: a
		// no-fsync follower of an fsync primary acknowledges records it
		// can lose to power loss. Best-effort at boot (the primary may be
		// down); the stream handshake re-checks on every connect.
		if st, err := repl.FetchPrimaryStatus(nil, *replicateFrom, 0); err == nil {
			if st.Fsync && !*fsync {
				log.Fatalf("%v", repl.ErrFsyncMismatch)
			}
		} else {
			log.Printf("primary %s unreachable at boot (%v); fsync handshake deferred to the stream connect", *replicateFrom, err)
		}
		if seq, err := repl.Bootstrap(*dataDir, *replicateFrom, followerID); err != nil {
			log.Fatalf("bootstrapping from %s: %v", *replicateFrom, err)
		} else if seq > 0 {
			log.Printf("bootstrapped from primary snapshot covering seq %d", seq)
		}
	}

	var store *provstore.Store
	if *dataDir != "" {
		var err error
		store, err = provstore.Open(*dataDir, provstore.Durability{
			Fsync:         *fsync,
			SnapshotEvery: *snapshotEvery,
			Shards:        *shards,
			Follower:      follower,
		})
		if err != nil {
			log.Fatalf("opening data dir %s: %v", *dataDir, err)
		}
		r := store.Stats().Durability.Recovery
		log.Printf("recovered %d document(s) from %s in %.1f ms: snapshot %d document(s), %d bytes, %.1f ms; journal tail %d record(s), %d bytes, %.1f ms",
			store.Count(), *dataDir, r.TotalMs, r.SnapshotDocs, r.SnapshotBytes, r.SnapshotMs, r.TailRecords, r.TailBytes, r.TailMs)
		if store.SuspectBitRot() {
			log.Printf("WARNING: recovery truncated the journal tail ahead of intact record frames in %s — "+
				"if this boot does not follow a crash/power loss, suspect disk corruption and verify the document set", *dataDir)
		}
	} else {
		store = provstore.NewSharded(*shards)
	}

	// One registry collects every subsystem's instruments; the service
	// exposes it at GET /metrics.
	reg := obs.NewRegistry()
	store.RegisterObs(reg)

	// The flight recorder retains recent request traces, the slow-query
	// log, and anomaly-frozen diagnostic bundles, at its defaults; the
	// service mounts /api/v0/debug/ over it.
	rec := flightrec.New(flightrec.Config{Logf: log.Printf})
	defer rec.Close()

	opts := []provservice.Option{provservice.WithRegistry(reg), provservice.WithFlightRecorder(rec)}
	if *token != "" {
		opts = append(opts, provservice.WithToken(*token))
	}
	if *maxInflightWrites > 0 || *shedLatencyTarget > 0 {
		opts = append(opts, provservice.WithAdmission(provservice.AdmissionConfig{
			MaxInflightWrites: *maxInflightWrites,
			ShedLatencyTarget: *shedLatencyTarget,
		}))
	}
	if *requestTimeout > 0 {
		opts = append(opts, provservice.WithRequestTimeout(*requestTimeout))
	}
	if *readCacheEntries > 0 && *readCacheBytes > 0 {
		opts = append(opts, provservice.WithReadCache(*readCacheEntries, *readCacheBytes))
	}
	var replServer *repl.Server
	var replFollower *repl.Follower
	if follower {
		var err error
		replFollower, err = repl.NewFollower(store, repl.FollowerConfig{
			PrimaryURL: *replicateFrom,
			Token:      *token,
			ID:         followerID,
			Fsync:      *fsync,
			Logger:     log.Default(),
			// Replication anomalies — the halt-worthy guards and
			// persistent stream failures — freeze a diagnostic bundle
			// capturing the moment the follower got stuck.
			OnAnomaly: func(reason string) { rec.Freeze("repl", reason) },
		})
		if err != nil {
			log.Fatalf("building follower: %v", err)
		}
		replFollower.RegisterObs(reg)
		opts = append(opts, provservice.WithReplicationFollower(replFollower, *replicateFrom, *maxLag))
	} else if store.Log() != nil {
		// Every journaled server doubles as a replication primary.
		replServer = repl.NewServer(store.Log(), *fsync)
		replServer.RegisterObs(reg)
		opts = append(opts, provservice.WithReplicationPrimary(replServer))
	}
	svc := provservice.New(store, opts...)
	srv := &http.Server{Addr: *addr, Handler: svc}

	if *pprofAddr != "" {
		// net/http/pprof registers on DefaultServeMux; this process
		// never serves DefaultServeMux anywhere else, so the profiling
		// listener exposes exactly the pprof handlers.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if replFollower != nil {
		go replFollower.Run()
	}
	role := "primary"
	if follower {
		role = "follower"
	}
	// One structured line with the full effective configuration — flags
	// plus derived defaults (actual shard count, follower id, role) — so
	// a log capture pins down exactly how this server was running.
	effective, _ := json.Marshal(map[string]interface{}{
		"addr":                *addr,
		"auth":                *token != "",
		"shards":              store.ShardCount(),
		"pprof_addr":          *pprofAddr,
		"data_dir":            *dataDir,
		"fsync":               *fsync,
		"snapshot_every":      *snapshotEvery,
		"role":                role,
		"replicate_from":      *replicateFrom,
		"follower_id":         followerID,
		"max_lag":             *maxLag,
		"max_inflight_writes": *maxInflightWrites,
		"shed_latency_ms":     shedLatencyTarget.Milliseconds(),
		"request_timeout_ms":  requestTimeout.Milliseconds(),
		"read_cache_entries":  *readCacheEntries,
		"read_cache_bytes":    *readCacheBytes,
		"bundle_dir":          resolveBundleDir(*bundleDir, *dataDir),
	})
	log.Printf("config: %s", effective)
	// Bundles frozen from here on embed the effective configuration, so
	// a dump pins down exactly how the server was running.
	rec.SetConfig(effective)

	// SIGQUIT dumps a diagnostic bundle to disk and keeps serving — the
	// observability twin of the runtime's stack dump. Notify replaces the
	// default die-with-stack-dump behavior.
	sigquit := make(chan os.Signal, 1)
	signal.Notify(sigquit, syscall.SIGQUIT)
	go func() {
		for range sigquit {
			dumpBundle(rec, resolveBundleDir(*bundleDir, *dataDir))
		}
	}()

	errc := make(chan error, 1)
	go func() {
		roleDesc := role
		if follower {
			roleDesc = "follower of " + *replicateFrom
		}
		log.Printf("yprov-server listening on %s (auth: %v, data: %q, fsync: %v, shards: %d, role: %s)",
			*addr, *token != "", *dataDir, *fsync, store.ShardCount(), roleDesc)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// Listener died on its own; still flush what we have.
		if replFollower != nil {
			replFollower.Stop()
		}
		_ = svc.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	log.Printf("shutting down: draining requests and flushing journal")
	// End replication first: follower loops stop applying, primary-side
	// streams terminate so they cannot hold the HTTP drain open.
	if replFollower != nil {
		replFollower.Stop()
	}
	if replServer != nil {
		replServer.Stop()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Fatalf("closing store: %v", err)
	}
	log.Printf("clean shutdown")
}

// resolveBundleDir picks where SIGQUIT bundles land: the explicit
// flag, else the data directory (diagnostics next to the journal they
// describe), else the working directory.
func resolveBundleDir(bundleDir, dataDir string) string {
	if bundleDir != "" {
		return bundleDir
	}
	if dataDir != "" {
		return dataDir
	}
	return "."
}

// dumpBundle captures the recorder's current state and writes it as a
// timestamped JSON file. Failures are logged, never fatal — a broken
// diagnostics path must not take the server down.
func dumpBundle(rec *flightrec.Recorder, dir string) {
	b := rec.Capture("sigquit")
	if b == nil {
		return
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		log.Printf("bundle dump: marshal: %v", err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("bundle dump: %v", err)
		return
	}
	path := filepath.Join(dir, "bundle-"+time.Now().UTC().Format("20060102T150405.000Z")+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Printf("bundle dump: %v", err)
		return
	}
	log.Printf("SIGQUIT: diagnostic bundle dumped to %s (%d traces, %dB)", path, len(b.Traces), len(data))
}
