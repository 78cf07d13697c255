#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the repository
# root. Every build and run artefact stays under .bench_build/ in the
# current directory: the Go build cache, module cache and temporary files,
# the toolchain's config directory, the driver binary, cluster sockets and
# span files.
#
#   bash perfbench/run.sh --workload burst-smp --seed 1 --seconds 25 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
