#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash e2ebench/run.sh --workload paper-q4 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, Go's telemetry and
# temporary files) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C e2ebench build -o "$out/" . ./startprobe
exec "$out/e2ebench" "$@"
