#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload local --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run data all stay under .bench_build
# at the repository root. The build fails (and nothing is printed on stdout)
# when the repository's sources are not beside this directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
# Freed heap goes back to the kernel with MADV_FREE, not MADV_DONTNEED: on a
# virtual machine that hands released guest memory to its host, re-faulting
# pages the runtime had just returned dominated the run-to-run spread of the
# memory-heavy workloads.
GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0" exec "$out/perfbench" "$@"
