#!/bin/sh
# Build ftbench and the racedet CLI from this checkout, then run
# one benchmark run:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no freshtrack sources here (need dune-project, lib/, bin/)" >&2
  exit 2
fi
# Keep the build inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . perfbench/ftbench.exe bin/racedet.exe >&2
exec ./_build/default/perfbench/ftbench.exe --racedet ./_build/default/bin/racedet.exe "$@"
