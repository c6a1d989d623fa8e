#!/bin/sh
# BENCHMARK.json's command: builds the benchmark from source into
# .bench_build/ at the root of the checkout, then runs it from this
# directory with the driver's arguments. The Go build cache, module cache,
# toolchain config, binary and data directories all stay inside the
# checkout, and nothing touches the network.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" \
XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go build -o "$build/carbench-e2e" .
exec "$build/carbench-e2e" "$@"
