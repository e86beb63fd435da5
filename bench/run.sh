#!/usr/bin/env bash
# Builds the service benchmark from the checkout it is run in and runs
# it; every argument is passed through (see bench/main.go). Run it from
# the repository root:
#
#   bash bench/run.sh --workload query-small --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the servers' scratch state all stay
# under .bench_build/ in the checkout. The bench module builds the
# repository's packages from the parent directory, so outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$out/servicebench" .
exec "$out/servicebench" -dir "$out" "$@"
