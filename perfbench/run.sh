#!/usr/bin/env bash
# Builds the benchmark together with the repository's libraries from this
# checkout's sources, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the root of a checkout. Build products and the daemon's
# socket stay under .bench_build/; the dune cache is off so nothing is
# written outside the checkout. Build output goes to stderr, so the last
# line on stdout is the benchmark's result object.
set -euo pipefail
export DUNE_CACHE=disabled
mkdir -p .bench_build
dune build --root . --build-dir "$PWD/.bench_build/dune" --profile release \
  ./perfbench/main.exe 1>&2
exec .bench_build/dune/default/perfbench/main.exe "$@"
