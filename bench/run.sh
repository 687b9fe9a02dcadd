#!/usr/bin/env bash
# Build and run the SNS benchmark from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# This is BENCHMARK.json's command. bench/ is a module of its own
# (bench/go.mod replaces module repro with the checkout around it); the
# script builds it from source into .bench_build/ (once per checkout;
# later runs reuse the Go build cache kept there too) and runs it.
# Everything the toolchain and the benchmark write stays inside the
# checkout, and no process outlives the script.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	# Not a checkout of the program: say so without starting the toolchain.
	echo "bench/run.sh: $PWD holds no go.mod and internal/: nothing to measure" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# With telemetry in its default mode the go command leaves a detached
# child behind that can outlive it; the mode file is the only switch.
echo off > "$build/config/go/telemetry/mode"
go build -C bench -o "$build/snsbench" .
exec "$build/snsbench" "$@"
