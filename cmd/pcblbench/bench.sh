#!/usr/bin/env bash
# Builds pcblbench from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/pcblbench/bench.sh run -workload bluenile-paper -seed 1
#   bash cmd/pcblbench/bench.sh compare A B
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# working data and the results.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go build -C cmd/pcblbench -o "$out/pcblbench" .
exec "$out/pcblbench" "$@"
