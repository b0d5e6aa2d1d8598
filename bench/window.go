package main

import (
	"time"
)

// What is computed from the timed window beside the end-to-end
// metrics: its slices, and the per-layer numbers.

// sliceLen is the length of the slices the window is cut into to see
// how throughput moves as the window goes on (client.drift_pct).
const sliceLen = time.Second

// slicing returns how many whole slices fit the window and how long
// one is: sliceLen, or the whole of a window shorter than that.
func slicing(window time.Duration) (n int, each time.Duration) {
	if window < sliceLen {
		return 1, window
	}
	return int(window / sliceLen), sliceLen
}

// sliceProgress returns how many operations the clients completed in
// each of the window's n slices of the given length. An operation that straddles a
// boundary counts on either side by the share of its duration there,
// so the count is smooth even when a slice holds only a few dozen
// operations.
func (r *runner) sliceProgress(n int, each time.Duration) []float64 {
	done := make([]float64, n)
	slice := float64(each)
	for _, cl := range r.clients {
		for i, end := range cl.rec.ends {
			dur := float64(cl.rec.lat[i])
			from, to := float64(end)-dur, float64(end)
			for k := int(from / slice); k < n && float64(k)*slice < to; k++ {
				lo, hi := max(from, float64(k)*slice), min(to, float64(k+1)*slice)
				if dur > 0 && hi > lo {
					done[k] += (hi - lo) / dur
				}
			}
		}
	}
	return done
}

// layerMetrics derives the per-layer numbers that come from the
// window itself: client tallies, /metrics and /stats deltas, /proc,
// and (traced) the server's span headers.
func (r *runner) layerMetrics(w phaseResult, before, after snapshotOf, control float64) {
	m := r.m
	ops := float64(w.ops)
	kops := ops / 1e3
	secs := w.end.Sub(w.start).Seconds()
	delta := func(family string, match ...string) float64 {
		return after.prom.value(family, match...) - before.prom.value(family, match...)
	}

	m.set("client.p95_ms", ms(percentile(w.lat, 0.95)), "ms")
	m.set("client.p99_ms", ms(percentile(w.lat, 0.99)), "ms")
	m.set("client.max_ms", ms(percentile(w.lat, 1)), "ms")
	m.set("client.attempted_ops", float64(w.attempted), "count")
	m.set("client.failed_ops", float64(w.failed), "count")
	m.set("client.cpu_ms_per_op", (after.selfCPU-before.selfCPU)*1e3/ops, "ms")
	m.set("client.docs_per_s", float64(w.docs)/secs, "1/s")
	m.set("client.user_mb_per_s", float64(w.bytes)/1e6/secs, "MB/s")
	m.set("client.read_hot_p50_ms", ms(percentile(w.byClass[classReadHot], 0.5)), "ms")
	m.set("client.read_cold_p50_ms", ms(percentile(w.byClass[classReadCold], 0.5)), "ms")
	writes := w.byClass[classWrite]
	m.set("client.write_p50_ms", ms(percentile(writes, 0.5)), "ms")
	m.set("client.write_p95_ms", ms(percentile(writes, 0.95)), "ms")

	m.set("core.run_ms_per_op", ms(int64(w.run))/ops, "ms")
	m.set("core.upload_ms_per_op", ms(int64(w.upload))/ops, "ms")

	var routeSum, routeCount float64
	for _, route := range map[string][]string{
		"train_run": {"documents/id"}, "ingest_batch": {"documents/batch"},
		"lineage_hot": {"documents/lineage"}, "mixed_rw": {"documents/lineage", "documents/id"},
	}[r.cfg.workload] {
		routeSum += delta("yprov_http_request_seconds_sum", "route", route)
		routeCount += delta("yprov_http_request_seconds_count", "route", route)
	}
	m.set("provservice.route_ms_per_op", ratio(routeSum*1e3, routeCount), "ms")

	hits, misses := delta("yprov_readcache_hits_total"), delta("yprov_readcache_misses_total")
	m.set("readcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("readcache.evictions_per_kop", delta("yprov_readcache_evictions_total")/kops, "1/kop")
	m.set("readcache.coalesced_per_kop", delta("yprov_readcache_coalesced_total")/kops, "1/kop")
	m.set("readcache.bypassed_per_kop", delta("yprov_readcache_bypassed_total")/kops, "1/kop")

	m.set("provstore.lock_wait_us_per_op", delta("yprov_shard_lock_wait_seconds_sum")*1e6/ops, "us")
	m.set("provstore.snapshots_per_kop", delta("yprov_wal_snapshots_total")/kops, "1/kop")
	m.set("graphdb.nodes", float64(after.stats.Nodes), "count")
	m.set("graphdb.rels", float64(after.stats.Rels), "count")

	syncs := delta("yprov_wal_fsync_seconds_count")
	m.set("wal.fsync_ms_per_sync", ratio(delta("yprov_wal_fsync_seconds_sum")*1e3, syncs), "ms")
	m.set("wal.records_per_commit", ratio(delta("yprov_wal_group_commit_records_sum"), delta("yprov_wal_group_commit_records_count")), "count")
	m.set("wal.syncs_per_kop", delta("yprov_wal_syncs_total")/kops, "1/kop")
	m.set("wal.segments_removed_per_kop", delta("yprov_wal_segments_removed_total")/kops, "1/kop")
	m.set("wal.proc_write_bytes_per_user_byte", ratio(float64(after.ioWrite-before.ioWrite), float64(w.bytes)), "B/B")

	m.set("runtime.gc_cycles_per_kop", delta("yprov_runtime_gc_cycles_total")/kops, "1/kop")
	m.set("runtime.gc_pause_p99_ms", after.prom.value("yprov_runtime_gc_pause_p99_seconds")*1e3, "ms")
	m.set("runtime.sched_latency_p99_ms", after.prom.value("yprov_runtime_sched_latency_p99_seconds")*1e3, "ms")
	m.set("runtime.heap_mb_end", after.prom.value("yprov_runtime_heap_bytes")/1e6, "MB")
	m.set("flightrec.records_per_kop", delta("yprov_flightrec_records_total")/kops, "1/kop")
	m.set("host.steal_pct", ratio((after.steal-before.steal)*100, after.hostTotal-before.hostTotal), "%")

	if !r.cfg.trace {
		return
	}
	m.set("trace.overhead_pct", (1-ratio(w.rate, control))*100, "%")
	// The server's own account of each request, from its span headers.
	var sum = map[string]time.Duration{}
	var n = map[string]int{}
	var respBytes, cacheHits, cacheMisses int
	for _, cl := range r.clients {
		r.tr.requests(cl.rec.ops, cl.id, w.start)
		for _, op := range cl.rec.ops {
			spans := parseSpans(op.spans)
			for _, nd := range spans {
				sum[nd.name] += nd.dur
				n[nd.name]++
			}
			switch op.cache {
			case "hit":
				cacheHits++
				for _, nd := range spans {
					if nd.name == "cache" {
						sum["cache-hit"] += nd.dur
					}
				}
			case "miss":
				cacheMisses++
			}
		}
		respBytes += cl.rec.respBytes
	}
	perOp := func(name string, scale float64) float64 { return ratio(float64(sum[name])/scale, float64(n[name])) }
	m.set("provservice.parse_ms_per_op", perOp("parse", 1e6), "ms")
	m.set("provservice.resp_bytes_per_op", float64(respBytes)/ops, "B")
	m.set("readcache.lookup_us_per_hit", ratio(float64(sum["cache-hit"])/1e3, float64(cacheHits)), "us")
	m.set("readcache.fill_ms_per_miss", perOp("fill", 1e6), "ms")
	m.set("graphdb.project_ms_per_write", perOp("project", 1e6), "ms")
	m.set("wal.stage_us_per_write", perOp("stage", 1e3), "us")
	m.set("wal.commit_wait_ms_per_write", perOp("commit", 1e6), "ms")
	for layer, d := range r.tr.self {
		r.logf("self time %-12s %9.3f ms/op", layer, ms(int64(d))/ops)
	}
}
