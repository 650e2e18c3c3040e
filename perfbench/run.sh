#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload analytics --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch databases,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" "$@"
