#!/usr/bin/env bash
# Prints every metric of every workload: the end-to-end metrics (untraced
# run), then the per-layer metrics (traced run), each by name with its unit
# and sample counts.  Fails on any wrong or undecided verdict.
#
#   bash corpusbench/report.sh [seed] [seconds]
#
# Run from the repository root.  Traces land in corpusbench/out/.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
for workload in prove_fixed hunt_buggy rerun_warm; do
  for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path corpusbench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>&1 >/dev/null
  done
done
