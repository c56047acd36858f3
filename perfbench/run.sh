#!/usr/bin/env bash
# Entry point of the repository benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload timing-cold --seed 1 --seconds 20 --trace 0
#
# Builds perfbench (perfbench/main.go) with the Go build cache, module
# cache, temporary files and tool settings kept inside the checkout's
# .bench_build, then runs it; perfbench builds the programs it measures
# the same way.
set -euo pipefail
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$out/tmp"
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
