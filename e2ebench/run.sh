#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root:
#
#	bash e2ebench/run.sh --workload solve-inline --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the temporary data
# directories, and the span dumps of traced runs.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
