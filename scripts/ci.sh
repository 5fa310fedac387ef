#!/usr/bin/env bash
# Tier-1 gate plus the determinism suite.
#
# Build, run the whole test suite, lint, then re-run the thread-count
# invariance tests at DTSNN_THREADS=1 and DTSNN_THREADS=4 to prove that the
# parallel execution layer is bitwise deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test --workspace -q

echo "== clippy =="
cargo clippy --all-targets -- -D warnings

# The invariance tests internally compare 1-thread vs N-thread runs; running
# them under both ambient settings additionally covers the env-var plumbing.
for threads in 1 4; do
    echo "== determinism suite (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor thread_count_invariant
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-core thread_count_invariant
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor --lib parallel::
done

# Batched-vs-sequential parity: the active-set compaction engine behind
# DynamicEvaluation::run_batched must reproduce the sequential runner
# bitwise (outcomes, T̂ histogram AND spike activity) at both ambient
# worker counts. The `batched` filter catches the whole parity suite in
# core::harness plus the batched throughput checks.
for threads in 1 4; do
    echo "== batched compaction parity (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-core batched
done

# Conformance stage: golden-trace replay against the committed goldens/
# (fails on any drift — regenerate intentionally changed numerics with
# `cargo run -p dtsnn-conformance --bin bless`) plus the fixed-seed fuzz
# smoke, both at 1 and 4 ambient workers; then the whole-network gradient
# checks.
for threads in 1 4; do
    echo "== conformance: golden replay + fuzz smoke (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-conformance --test golden_replay
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-conformance --test fuzz_smoke
done
echo "== conformance: whole-network gradient checks =="
cargo test -q -p dtsnn-conformance --test gradient_check

# Kernel stage: the event-driven sparse matmul family must reproduce the
# blocked dense kernels bitwise, the direct spike-scatter convolution must
# reproduce the im2col + matmul reference bitwise (every geometry, input
# class, batch size and forced reference family), and the one-pass LIF step
# must reproduce the plain-tensor LifNeuron::forward bitwise (both resets,
# smooth spikes, non-finite inputs; each of the two tests pins the thread
# count and SIMD tier per case, the ambient values steer the reference) —
# at both ambient worker counts and both ends of the SIMD ladder. The
# layer-level plan must never outlive its weights, and the
# workspace-threaded Snn forward must match the plain layer chain while
# allocating nothing after warm-up. (That none of it changed committed
# numerics is the SIMD stage's four golden replays under the same settings.)
for threads in 1 4; do
    echo "== kernel stage: sparse/dense equivalence (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor sparse
    for simd in scalar avx2; do
        echo "== kernel stage: direct conv = reference, LIF step = tensor ops (DTSNN_THREADS=$threads DTSNN_SIMD=$simd) =="
        DTSNN_SIMD=$simd DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor --test conv_direct
        DTSNN_SIMD=$simd DTSNN_THREADS=$threads cargo test -q -p dtsnn-snn --test lif_step
    done
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-snn --test conv_plan
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-snn workspace
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-snn warmed_timestep_loop
done

# Robustness stage: the Monte-Carlo fault harness on a tiny net (the
# 2-trial smoke plus the aggregate thread-invariance check) at both ambient
# worker counts — trial fan-out must produce bitwise-identical mean/std/CI
# aggregates regardless of DTSNN_THREADS.
for threads in 1 4; do
    echo "== robustness: Monte-Carlo fault smoke (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-core robustness
done

# Backend stage: the pluggable kernel seam. Dense/CSR/bitset must agree
# bitwise on raw kernels and on whole forward passes forced down each
# family via the scoped override (fuzz oracle 9 runs inside fuzz_smoke;
# the snn test forces full networks end-to-end), and the quantized int8
# weight path must replay its own committed goldens — all at both ambient
# worker counts.
for threads in 1 4; do
    echo "== backend stage: dense/CSR/bitset equivalence (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor backend
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor bitset
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor quant
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-snn forced_backends
    echo "== backend stage: quantized golden replay (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-conformance --test golden_replay quant
done

# Serving stage: the continuous-batching engine. The simulated-clock
# determinism suite (mid-window splice ≡ solo run, bitwise, plus schedule
# reproducibility) and the admission/θ-controller property suite run at
# both ambient worker counts; then a 2-second real-clock smoke drives the
# live MPSC reactor end to end at each count.
for threads in 1 4; do
    echo "== serving stage: simulated-clock determinism (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-serve --test determinism
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-serve --test properties
    echo "== serving stage: real-clock smoke (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads DTSNN_SERVE_SMOKE_SECS=2 \
        cargo run --release -q -p dtsnn-bench --bin serving_load
done

# Chaos stage: the sharded fault-tolerant cluster. Parity first — a
# no-fault 1-worker cluster must reproduce the single server bitwise
# (outcomes AND step records), 4 workers must match solo runs — then the
# chaos property suite: exactly-once termination under every seeded fault
# kind (crash/stall/slowdown/transient and mixed), bitwise-reproducible
# event streams across runs and thread counts, brownout ladder behavior.
# Fuzz oracle 12 re-checks the cluster≡server equivalence over random
# cases inside the fuzz_smoke runs above. Finally the chaos bench runs a
# CI-sized fault-intensity sweep asserting goodput never collapses.
for threads in 1 4; do
    echo "== chaos stage: cluster parity + fault injection (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-serve --test cluster
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-serve --test chaos
done
echo "== chaos stage: fault-intensity smoke sweep =="
DTSNN_CHAOS_SMOKE=1 cargo run --release -q -p dtsnn-bench --bin serving_chaos

# SIMD stage: the runtime-dispatched vector tier. The unit property suite
# pins every kernel family (dense/bitset/quant/BN; the LIF step is the
# kernel stage's) bitwise against the scalar oracle; then golden replay and
# the fuzz smoke (which runs fuzz oracle 13, whole forward passes
# forced-scalar vs vectorized) are repeated with the dispatcher forced off
# and on auto at both ambient worker counts — the committed numerics must
# be reachable from either tier with no re-bless. The speedup bench
# asserts the ≥1.5× dense matmul_nt floor in-bin and records cpu_features
# next to host_cores in its JSON.
for threads in 1 4; do
    for simd in off auto; do
        echo "== simd stage: golden replay + fuzz smoke (DTSNN_SIMD=$simd DTSNN_THREADS=$threads) =="
        DTSNN_SIMD=$simd DTSNN_THREADS=$threads cargo test -q -p dtsnn-tensor simd
        DTSNN_SIMD=$simd DTSNN_THREADS=$threads cargo test -q -p dtsnn-conformance --test golden_replay
        DTSNN_SIMD=$simd DTSNN_THREADS=$threads cargo test -q -p dtsnn-conformance --test fuzz_smoke
    done
done
echo "== simd stage: speedup floor =="
cargo run --release -q -p dtsnn-bench --bin ext_simd_speedup

# Simulator stage: the event-driven multi-tile model and the mapping
# search. The integration suite pins (a) bitwise parity between the event
# model (pipelining + contention off) and the analytical ledger — fuzz
# oracle 11 re-checks the same equivalence over random cases inside the
# fuzz_smoke runs above — (b) the flow-shop closed form for the pipelined
# schedule, and (c) seeded annealing trajectories that are bitwise
# identical at 1 and 4 ambient workers.
for threads in 1 4; do
    echo "== simulator stage: event-sim parity + annealing determinism (DTSNN_THREADS=$threads) =="
    DTSNN_THREADS=$threads cargo test -q -p dtsnn-imc --test simulator
done

echo "ci.sh: all green"
