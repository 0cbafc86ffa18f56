#!/bin/sh
# Build the benchmark from this checkout and run it:
#
#   sh speedbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere; it works at the root of the checkout it lives in.
# Temporary archives and Chrome traces go to .speedbench-out/ there; the
# build stays in _build/ (the shared dune cache is not used).
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "speedbench: $(pwd) is not a full checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./speedbench/speedbench.exe >&2
exec ./_build/default/speedbench/speedbench.exe "$@"
