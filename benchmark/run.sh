#!/usr/bin/env bash
# The command of BENCHMARK.json: one run of one workload, from the root of a
# checkout. It builds the benchmark and (through it) the measured programs
# from source, keeping the Go build cache, temporary files and binaries
# under .bench_build/ so that nothing outside the checkout is written.
#
#   bash benchmark/run.sh --workload score_hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/coldserve ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
mkdir -p .bench_build/bin .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local
go build -o .bench_build/bin/benchmark ./benchmark
exec .bench_build/bin/benchmark "$@"
