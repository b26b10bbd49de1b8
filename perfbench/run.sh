#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything it writes stays inside the checkout: dune's _build/, and
# .perfbench/ for temporary files and the span dumps of traced runs.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p .perfbench/tmp
export TMPDIR="$root/.perfbench/tmp"
export XDG_CACHE_HOME="$root/.perfbench/cache"
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
