#!/usr/bin/env bash
# Builds the benchmark driver and the esdds-node daemon from this
# checkout's sources into .bench_build/ and runs the driver with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes (Go build
# cache, binaries, daemon logs, data directories, span dumps) stays
# under .bench_build/. Build output goes to standard error so that the
# last line of standard output is the driver's JSON result.
set -euo pipefail

if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the root of a checkout of the repository (go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(
	cd perfbench
	go build -o "$out/perfbench" .
	go build -o "$out/esdds-node" repro/cmd/esdds-node
) >&2
exec "$out/perfbench" -node-bin "$out/esdds-node" -out "$out" "$@"
