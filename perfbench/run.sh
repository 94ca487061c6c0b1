#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments:
#
#	bash perfbench/run.sh --workload table7-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root.  Everything the build and the run write
# (Go build cache, binary, scratch directories, span files) goes under
# .bench_build in that checkout.
set -e
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
