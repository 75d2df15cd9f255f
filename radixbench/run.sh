#!/usr/bin/env bash
# Builds radixbench from the checkout's sources and runs it with the given
# arguments. Everything the build writes (binary and Go build cache) stays
# in .bench_build/ under the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$out/radixbench" .
exec "$out/radixbench" "$@"
