#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, Go's config and telemetry files) stays under .bench_build in
# that directory. The benchmark module resolves the adascale packages from
# the parent directory, so the build fails, and nothing is printed on
# standard output, unless the repository sources are present.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
