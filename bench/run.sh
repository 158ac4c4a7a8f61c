#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there; every argument goes to the benchmark.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOTOOLCHAIN=local go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
