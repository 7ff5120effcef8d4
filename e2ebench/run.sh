#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Call it from
# the repository root:
#
#   bash e2ebench/run.sh --workload navigate --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files and the binary.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOTELEMETRY=off
export TMPDIR="$out/gotmp"

go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" -root "$root" "$@"
