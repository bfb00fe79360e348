#!/usr/bin/env bash
# Builds the layer-ledger benchmark from this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash layerbench/run.sh --workload rekey-wave --seed 1 --seconds 10 --trace 0
#
# Every build artefact — the binary, Go's build cache, the spans of
# traced runs — stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go build -C "${root}/layerbench" -o "${build}/layerbench" .
exec "${build}/layerbench" "$@"
