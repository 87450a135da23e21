#!/usr/bin/env bash
# Builds cmd/atserve and the benchmark driver from this checkout, then runs
# the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload structured-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the root of the checkout: the Go build cache, the binaries, server logs,
# and the span files of traced runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local

(cd "$root" && go build -o "$out/bin/atserve" ./cmd/atserve)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

commit="$(git -C "$root" describe --always --dirty 2>/dev/null || echo none)"
cd "$root"
exec "$out/bin/perfbench" -out "$out" -atserve "$out/bin/atserve" -commit "$commit" "$@"
