#!/bin/bash
# Builds the benchmark to a binary inside the checkout and execs it, so
# that no intermediate process (as with `go run`) can outlive the run.
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/fovr-bench" .)
cd "$root"
exec "$build/fovr-bench" -outdir bench/out "$@"
