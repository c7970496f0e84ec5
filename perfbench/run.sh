#!/usr/bin/env bash
# Builds the benchmark from source and runs it. All arguments pass through to
# the perfbench binary, e.g.
#
#   bash perfbench/run.sh --workload recommend-hot --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and the
# binary live under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out" "$@"
