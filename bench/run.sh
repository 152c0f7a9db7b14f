#!/usr/bin/env bash
# Builds mtbench from source into .bench_build/ and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash bench/run.sh --workload campaign-x86 --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (compiler cache, work directory and the go
# command's telemetry counters included) stays inside the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench/mtbench ]; then
	echo "bench/run.sh: run from the root of a checkout of the whole repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
go build -o "$build/bin/mtbench" ./bench/mtbench
exec "$build/bin/mtbench" "$@"
