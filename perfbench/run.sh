#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments are passed
# through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
#
# The build, its Go cache and every file a run writes stay under
# .bench_build/ in the current directory. The module needs nothing from
# the network: its only dependency is the repository, through a replace
# directive, so module downloads are switched off.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
(
	cd "$(dirname "$0")"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
