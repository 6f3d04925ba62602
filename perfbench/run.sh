#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, for example:
#
#   bash perfbench/run.sh --workload audit --seed 1 --seconds 35 --trace 0
#
# The build cache, the binary and the benchmark's generated files go to
# .bench_build/ in the repository, so a run writes nothing outside it.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry in there too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
