GO ?= go

.PHONY: all build test vet layering race chaos fuzz-smoke bench bench-compile bench-key bench-selftest metrics-format ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The serving path answers lineage from one prov.Index per stored
# document; internal/graphdb is the reference engine its tests compare
# against and must not be imported by anything the server runs.
layering:
	@if $(GO) list -deps ./internal/provstore ./internal/provservice ./cmd/yprov-server | grep -qx repro/internal/graphdb; then \
		echo "layering: the serving path imports repro/internal/graphdb"; exit 1; \
	fi

race:
	$(GO) test -race ./...

# Fault-injection suite under the race detector: disk faults
# (wal.FaultFS), what a kill -9 in mid-checkpoint leaves in the data
# directory, network faults (internal/faultnet), the end-to-end chaos
# scenarios (internal/chaos), and the loadgen chaos smoke.
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/faultnet/ ./internal/loadgen/ -run 'TestChaos|TestProxy'
	$(GO) test -race ./internal/wal/ -run 'TestFault|TestStaleSnapshotTemp'

# Ten seconds of each fuzzer on top of its committed seed corpus. prov:
# the differential one that holds the PROV-JSON decoder to the
# encoding/json reference it replaced, and the two binary-codec ones.
# zarr: the fused byte shuffle against a two-buffer transposition, and
# Open/ReadFloat64 over hostile ".zarray" documents and chunk bytes.
# go test takes one -fuzz target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseJSONMatchesReference$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryDocRoundTrip$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryDocDecode$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzShuffleRoundTrip$$' -fuzztime 10s ./internal/zarr
	$(GO) test -run '^$$' -fuzz '^FuzzChunkDecode$$' -fuzztime 10s ./internal/zarr

# Full benchmark suite (tables, figures, ablations, durability). One
# iteration per benchmark keeps it tractable; raise -benchtime for
# stable numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# One-iteration pass over the whole benchmark suite so `go test -bench`
# targets cannot rot unnoticed; part of `make ci`. Same job as `bench`,
# kept as an alias so the CI gate reads as intent.
bench-compile: bench

# The hot-path micro-benchmarks: logging,
# lineage, Zarr offload, the WAL durability paths, the sharded engine's
# concurrency pairs (single-lock vs sharded), the bulk-ingestion pair
# (sequential Puts vs one group-committed batch), the replication
# pipeline (follower catch-up throughput), the histogram-observe hot
# path every one of those now pays per request/fsync/lock, the WAL
# record codec pair (JSON vs binary encode/decode, allocs tracked),
# the cached lineage read path (cold vs warm vs invalidated), and the
# flight recorder's per-request admission path (unsampled fast-path
# rejection — the <100ns contract — vs sampled record retention).
bench-key:
	$(GO) test -run '^$$' -bench 'BenchmarkLogMetric$$|BenchmarkZarrAppend$$|BenchmarkLineage$$|BenchmarkBuildProv$$|BenchmarkWALAppend$$|BenchmarkRecovery$$|BenchmarkShardedPutParallel$$|BenchmarkMixedReadWrite$$|BenchmarkBatchPut$$|BenchmarkReplicationThroughput$$|BenchmarkHistObserve$$|BenchmarkCodecEncode$$|BenchmarkCodecDecode$$|BenchmarkLineageCached$$|BenchmarkFlightRecord$$' -benchmem -benchtime 1s .

# Exposition-format gate: the strict Prometheus 0.0.4 parser in
# internal/obs must accept everything GET /metrics serves — including
# trace-ID exemplars on histogram buckets and the checkpoint
# instruments — and the registry's own
# output (and the flight recorder's runtime-telemetry gauges) must
# round-trip through it.
metrics-format:
	$(GO) test -count=1 -run 'TestPromMetricsExposition|TestPromMetricsExemplars|TestRegistryExposition|TestValidateExposition|TestExemplar|TestRuntimeTelemetry' ./internal/provservice/ ./internal/obs/ ./internal/flightrec/

# The repo benchmark harness under bench/ is its own module (it imports
# repro/internal/... through a replace directive), so `go build ./...`
# and `go test ./...` from the root never compile it. Vet and test it
# here so an API change that breaks the harness fails CI, not the
# benchmark run.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Full gate: build, static checks (vet, import layering), unit tests,
# the race-detector pass over every package, the fault suites, the
# fuzzer smoke, the exposition-format gate, the benchmark compile smoke,
# and the benchmark harness's own tests.
ci: build vet layering test race chaos fuzz-smoke metrics-format bench-compile bench-selftest
