#!/usr/bin/env bash
# Builds the splitbench harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash splitbench/run.sh --workload loo-l6 --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and everything the run writes stay under
# .bench_build/ in the current directory. Outside a full checkout (no
# parent module next to splitbench/) the build fails and so does the run.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" \
	XDG_CONFIG_HOME="$build/go-config" GOPATH="$build/go-path" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$here" build -o "$build/splitbench" .
exec "$build/splitbench" -workdir "$build/splitbench-work" "$@"
