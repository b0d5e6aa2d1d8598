#!/usr/bin/env bash
# Builds the benchmark harness and yprov-server from this checkout and
# runs the harness with the given arguments. Everything it writes stays
# inside the checkout: build cache, binaries and per-run scratch under
# .bench_build/, traces under bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

# The harness is its own module (bench/go.mod) that resolves the
# repository through `replace repro => ../`; without the repository
# around it there is nothing to build or measure.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/yprov-server" ]; then
	echo "bench: $root is not the repository: no go.mod or cmd/yprov-server to build the server from" >&2
	exit 2
fi

mkdir -p "$build/bin" "$build/run"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$build/run"

# Rebuild only when a source file is newer than the last build: the
# driver runs this script once per measurement.
stamp="$build/bin/.built"
if [ ! -e "$stamp" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$stamp" -print -quit)" ]; then
	(cd "$root/bench" && go build -o "$build/bin/yprov-bench" . && go build -o "$build/bin/yprov-server" repro/cmd/yprov-server)
	touch "$stamp"
fi
exec "$build/bin/yprov-bench" -root "$root" "$@"
