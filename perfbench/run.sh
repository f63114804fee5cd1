#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in and
# runs it with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload svc-batch --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the span files stay under .bench_build/
# in the checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	GOSUMDB=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
