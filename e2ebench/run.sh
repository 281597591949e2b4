#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root, e.g.:
#
#   bash e2ebench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and each run's scratch state live in
# .bench_build/ at the repository root. Outside a full checkout (no parent
# module to build against) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" -workdir "$build" "$@"
