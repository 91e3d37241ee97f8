#!/usr/bin/env bash
# Builds troutd and the benchmark program from the checkout this script sits
# in, then runs one benchmark workload. Build caches, temporary files and
# binaries all live under .bench_build at the checkout root, so the run
# writes nothing outside the checkout.
#
#   bash perfbench/run.sh --workload live-shallow --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/troutd" ./cmd/troutd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
