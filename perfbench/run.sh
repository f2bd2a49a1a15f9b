#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve-contended --seed 0 --seconds 30 --trace 0
#
# Every build product (binary, Go build cache, temporaries) stays under
# .bench_build in the checkout root, which is also the working directory
# the benchmark runs in. The build is offline: the benchmark needs no
# module beyond the checkout itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
