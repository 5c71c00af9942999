#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload table1-cg --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout: the
# Go build cache, the binary, and the serve workload's temporary stores.
set -euo pipefail

root="$(pwd)"
here="$root/perfbench"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export TMPDIR="$build/tmp"

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
