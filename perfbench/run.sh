#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives from this checkout's
# sources, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs and the Go build cache live under .bench_build (or
# $CARGO_TARGET_DIR when set), run outputs under .bench_out; nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

# A checkout without the program's sources cannot be benchmarked: the
# builds below fail and the script exits non-zero without a result.
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/offloadd" ./cmd/offloadd >&2
go build -o "$build/bin/offbench" ./cmd/offbench >&2

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$build/bin/perfbench" \
  -offloadd "$build/bin/offloadd" \
  -offbench "$build/bin/offbench" \
  -go "$(command -v go)" \
  -commit "$commit" \
  "$@"
