#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash servebench/run.sh --workload dna-scan --seed 1 --seconds 20 --trace 0
# Everything the build and the run leave behind (Go build cache, binary,
# temp data directories, span files) goes under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env file inside
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -out "$out" "$@"
