#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload scan-sparse --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# module and config directories the toolchain would otherwise keep under
# $HOME, the generated genome artifacts and the span dumps.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
