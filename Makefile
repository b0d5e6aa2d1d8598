GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt test vet layering race chaos fuzz-smoke bench bench-selftest metrics-format ci

all: build

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any tracked Go file (bench/ included).
fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

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
# directory, network faults (internal/faultnet), and the end-to-end
# chaos scenarios (internal/chaos), which read back every acknowledged
# write.
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/faultnet/ -run 'TestChaos|TestProxy'
	$(GO) test -race ./internal/wal/ -run 'TestFault|TestStaleSnapshotTemp'

# Ten seconds of each fuzzer on top of its committed seed corpus. prov:
# the differential one that holds the PROV-JSON decoder to the
# encoding/json reference it replaced, and the two binary-codec ones.
# zarr: the fused byte shuffle against a two-buffer transposition, and
# Open/ReadFloat64 over hostile ".zarray" documents and chunk bytes.
# provservice: the NDJSON batch envelope scan against the encoding/json
# struct decode it replaced. go test takes one -fuzz target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseJSONMatchesReference$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryDocRoundTrip$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryDocDecode$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzShuffleRoundTrip$$' -fuzztime 10s ./internal/zarr
	$(GO) test -run '^$$' -fuzz '^FuzzChunkDecode$$' -fuzztime 10s ./internal/zarr
	$(GO) test -run '^$$' -fuzz '^FuzzScanBatchLine$$' -fuzztime 10s ./internal/provservice

# One iteration of every go test benchmark (the paper's tables and
# figures, the library's hot paths and ablations, the recorder and
# histogram micro-benchmarks), so none of them can rot unnoticed; part
# of `make ci`. Raise -benchtime for stable numbers. Performance claims
# are measured by bench/run.sh, not here.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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

# Full gate: build, static checks (gofmt, vet, import layering), unit tests,
# the race-detector pass over every package, the fault suites, the
# fuzzer smoke, the exposition-format gate, one pass over every go test
# benchmark, and the benchmark harness's own tests.
ci: build fmt vet layering test race chaos fuzz-smoke metrics-format bench bench-selftest
