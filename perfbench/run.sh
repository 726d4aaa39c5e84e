#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload ipv4-cpu-64b --seed 1 --seconds 20 --trace 0
#
# Every build output (binary, Go build cache, temporary files) stays under
# .bench_build/ in the current directory. The last line on standard output
# is the JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
