#!/usr/bin/env bash
# Repeatability acceptance test: of two complete sets of runs of the same
# commit on the same box, the second must not be worse than the first by more
# than the benchmark's own bounds, for every (workload, end-to-end metric)
# pair — the rule the driver applies to its own two sets.
#
#   bash benchmark/check.sh            # seed 1, 20 s per workload
#   SEED=2 SECONDS_PER_RUN=30 bash benchmark/check.sh
#
# Later changes use the same tool for parent-versus-change:
#   go run -C benchmark . -agree out/result-parent.json out/result-change.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
seed="${SEED:-1}"
seconds="${SECONDS_PER_RUN:-20}"
mkdir -p out
go build -o out/ndpbench .
for set in A B; do
	out/ndpbench -workload all -seed "$seed" -seconds "$seconds" -label "set$set" -out out
done
out/ndpbench -agree "out/result-setA.json" "out/result-setB.json"
