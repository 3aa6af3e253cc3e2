#!/usr/bin/env bash
# Build the end-to-end benchmark from this source tree and run it:
#   bash bench/e2e/bench.sh --workload solver-pcnet --seed 1 --seconds 20 --trace 0
# Arguments go to `e2e.exe run` (see bench/e2e/README.md).  The last line
# of stdout is the result as one JSON object; build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench.sh: $(pwd) holds no S2E source tree (dune-project, lib/)" >&2
  exit 2
fi
# Keep every build artefact inside the tree: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe run "$@"
