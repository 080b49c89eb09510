#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload firmware|campaign|service --seed N --seconds S --trace 0|1
# Everything the build writes (compiler cache, binary, spans) stays in
# .bench_build under the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Freed heap goes back to the OS with MADV_FREE instead of MADV_DONTNEED:
# with the default, the service workload re-faulted ~45k pages/s and its
# throughput swung with the host's page-fault cost (see README.md).
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$out/perfbench" "$@"
