#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with every argument passed through. Run from the repository root:
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 10 --trace 0
# The Go build cache, the binary and the result records stay under
# .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
