#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload vec-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, cache and trace file
# goes under .bench_build/ in that directory; nothing is read from or written
# to the user's Go caches, and the toolchain never goes to the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
