#!/usr/bin/env bash
# Builds the daemon and perf.exe from source, then runs one measured
# workload:  bash perf/bench.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of a checkout.  The last line of stdout is the
# result JSON; build output and the human-readable report go to stderr.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perf/dune ]; then
  echo "perf: run from the root of a full checkout (dune-project, lib/, bin/ not found)" >&2
  exit 2
fi
# No shared build cache: the build reads and writes only this checkout.
DUNE_CACHE=disabled dune build --root . ./perf/perf.exe ./bin/hlpower_cli.exe >&2
exec ./_build/default/perf/perf.exe run "$@"
