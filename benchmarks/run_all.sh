#!/usr/bin/env bash
# Run every workload: end-to-end metrics and output checks, one report each.
#   bash benchmarks/run_all.sh --seed 1 --seconds 20 [--trace 1]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in ml-full ml-sparse gibbs cli-pipeline; do
    python3 benchmarks/run.py --workload "$workload" --trace 0 "$@"
done
