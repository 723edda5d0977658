#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 28 --trace 0
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and scratch files all stay in .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
