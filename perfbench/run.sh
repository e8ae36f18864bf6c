#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench.bin" .
exec "$build/perfbench.bin" "$@"
