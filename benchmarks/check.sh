#!/usr/bin/env bash
# Builds the benchmark offline, runs its own tests, then runs the untraced
# measurement of every workload twice in one process (--selfcheck) and fails
# if any end-to-end metric differs by more than its bound.
#
#   SEED=3 SECONDS_PER_RUN=10 benchmarks/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmarks/Cargo.toml
target=${CARGO_TARGET_DIR:-benchmarks/target}

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"

for workload in solo_vgg batched_resnet serve_poisson chip_map; do
    echo "== $workload"
    "$target/release/dtsnn-perfbench" --workload "$workload" --seed "${SEED:-1}" \
        --seconds "${SECONDS_PER_RUN:-10}" --trace 0 --selfcheck
done
echo "selfcheck passed on all four workloads"
