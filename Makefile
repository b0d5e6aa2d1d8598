GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt test vet layering linkcheck race chaos fuzz-smoke bench bench-selftest metrics-format ci

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
# document. internal/graphdb is only the graph the bench/ probe times:
# nothing the server runs may import it, and no root-module package may
# import it at all, test imports included. The server also imports none
# of the training library (core, metrics, zarr, telemetry), which is
# what makes the server workloads controls for a library change. And
# internal/prov imports no encoding/json outside its tests: its one
# PROV-JSON reader and one writer are its own, and a reflection-only
# method (a MarshalJSON or UnmarshalJSON nothing calls but
# encoding/json), which make linkcheck cannot see, would need it.
layering:
	@if $(GO) list -f '{{join .Imports " "}}' ./internal/prov | tr ' ' '\n' | grep -qx encoding/json; then \
		echo "layering: internal/prov imports encoding/json"; exit 1; \
	fi
	@out=$$($(GO) list -deps ./cmd/yprov-server | grep -xE 'repro/internal/(core|metrics|zarr|telemetry)'); \
	if [ -n "$$out" ]; then echo "layering: cmd/yprov-server imports the training library:"; echo "$$out"; exit 1; fi
	@if $(GO) list -deps ./internal/provstore ./internal/provservice ./cmd/yprov-server | grep -qx repro/internal/graphdb; then \
		echo "layering: the serving path imports repro/internal/graphdb"; exit 1; \
	fi
	@out=$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | grep -w repro/internal/graphdb | awk '$$1 != "repro/internal/graphdb"'); \
	if [ -n "$$out" ]; then echo "layering: only bench/ may import repro/internal/graphdb; these packages do:"; echo "$$out" | cut -d' ' -f1; exit 1; fi

# Link gate: every non-test function is linked by a program that ships
# (a main package under cmd/ or examples/, or the bench/ harness) or is
# on testdata/unlinked.txt with the test, fuzzer, Make target or
# interface that needs it; a line there whose function is now linked or
# gone fails too. It rebuilds all twelve programs with inlining off and
# -ldflags=-dumpdep, a build cache of its own that takes seconds warm
# and minutes cold, so it runs here and not in the tier-1 `go test
# ./...`. The gate is linkcheck_gate_test.go behind the linkcheck build
# tag; its symbol matcher is tested on fixture dumps in linkcheck_test.go.
linkcheck:
	$(GO) test -tags linkcheck -count=1 -run '^TestLinkcheck$$' .

race:
	$(GO) test -race ./...

# Fault-injection suite under the race detector: disk faults
# (wal.FaultFS), what a kill -9 in mid-checkpoint leaves in the data
# directory, what an upgrade stopped part way leaves (provstore.Upgrade),
# network faults (internal/faultnet), and the end-to-end chaos scenarios
# (internal/chaos), which read back every acknowledged write.
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/faultnet/ -run 'TestChaos|TestProxy'
	$(GO) test -race ./internal/wal/ -run 'TestFault|TestStaleSnapshotTemp'
	$(GO) test -race ./internal/provstore/ -run 'TestUpgradeInterrupted'

# Ten seconds of each fuzzer on top of its committed seed corpus. prov:
# the differential one that holds the PROV-JSON decoder to the
# encoding/json reference it replaced, the differential one that holds
# the PROV-JSON emitter to the encoding/json encoder it replaced (both
# forms, on every document the decoder accepts, and on every blob
# ParseBinary accepts also the document GET and subgraph bodies written
# from the blob against the decoded document's), the differential one
# that holds
# TranscodeJSON (PROV-JSON straight to a blob, the server's write path)
# to ParseJSON, the map-walk validator and AppendBinary — same blob byte
# for byte, same error text, same stats — the differential one that
# holds Validate and EncodeDocument (the library's put), over documents
# built through the API, to the map-walk validator they replaced — same
# issues in the same order, same error text, AppendBinary's blob — the
# two binary-codec ones (the
# round-trip one also re-encodes a canonical blob to the same bytes, the
# decode one also holds ElementAttr, attribute search's walk, to the
# attributes ParseBinary decodes), and the differential one that holds
# the index and census IndexBinary builds from a blob to those of the
# document ParseBinary decodes from it (nodes, rows, dangling relation,
# counts and prov:type hits; IndexBinary accepts what ParseBinary does
# but a node name the string table spells twice).
# zarr: the fused byte shuffle against a two-buffer transposition,
# Open/ReadFloat64 over hostile ".zarray" documents and chunk bytes, and
# OpenZip/List/Open/ReadFloat64 over arbitrary bytes as a metrics.zarr
# archive. metrics: random collections (lengths across block and chunk
# boundaries, NaN and infinite values, negative steps, epochs past 2^31,
# times in any zone and outside UnixNano's years) through the three
# sinks against the []Point series and Flush bodies they replaced: the
# same bytes from every sink, the same points and Stats. jsonscan: Skip/End against json.Valid and String/Bytes
# against json.Unmarshal. provservice: the one-scan batch line read
# (envelope read and document transcoded together) against the two-pass read it
# replaced (envelope span, ParseJSON, Validate, AppendBinary: same id,
# same line error text, same blob), whose envelope scan is in turn held
# to the encoding/json struct decode before it. provstore: the
# journal record envelope, which must not panic on any bytes and must
# decode what appendRecord re-encodes from an accepted record to the same
# mutation; the snapshot payload, whose accepted inputs, applied to
# a store and re-encoded by appendSnapshot, must rebuild an equal store
# with byte-equal kept blobs; and any PROV-JSON a put or a batch
# accepts, whose transcoded blob the live store, the reopened journal, a
# follower and a checkpoint must each hold byte for byte, with the
# snapshot's blob the journal record's. wal: any bytes as a frame
# stream, which the stream scanner must split exactly as parseFrame
# does. go test takes one -fuzz target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseJSONMatchesReference$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzJSONEmitMatchesReference$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzTranscodeJSONMatchesEncode$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzValidateMatchesOracle$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryDocRoundTrip$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryDocDecode$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzIndexBinaryMatchesDecode$$' -fuzztime 10s ./internal/prov
	$(GO) test -run '^$$' -fuzz '^FuzzShuffleRoundTrip$$' -fuzztime 10s ./internal/zarr
	$(GO) test -run '^$$' -fuzz '^FuzzChunkDecode$$' -fuzztime 10s ./internal/zarr
	$(GO) test -run '^$$' -fuzz '^FuzzOpenZipStore$$' -fuzztime 10s ./internal/zarr
	$(GO) test -run '^$$' -fuzz '^FuzzSeriesSinksMatchPoints$$' -fuzztime 10s ./internal/metrics
	$(GO) test -run '^$$' -fuzz '^FuzzSkipMatchesValid$$' -fuzztime 10s ./internal/jsonscan
	$(GO) test -run '^$$' -fuzz '^FuzzScanBatchLine$$' -fuzztime 10s ./internal/provservice
	$(GO) test -run '^$$' -fuzz '^FuzzBatchLineMatchesTwoPass$$' -fuzztime 10s ./internal/provservice
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecordPayload$$' -fuzztime 10s ./internal/provstore
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 10s ./internal/provstore
	$(GO) test -run '^$$' -fuzz '^FuzzApplyRecoversEqual$$' -fuzztime 10s ./internal/provstore
	$(GO) test -run '^$$' -fuzz '^FuzzFrameScan$$' -fuzztime 10s ./internal/wal

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

# Full gate: build, static checks (gofmt, vet, import layering, the link
# gate), unit tests, the race-detector pass over every package, the
# fault suites, the fuzzer smoke, the exposition-format gate, one pass
# over every go test benchmark, and the benchmark harness's own tests.
ci: build fmt vet layering linkcheck test race chaos fuzz-smoke metrics-format bench bench-selftest
