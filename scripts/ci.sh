#!/usr/bin/env bash
# The full gate: build, the whole test suite and lint once, then the suites
# that must not depend on the two runtime knobs re-run at both ambient worker
# counts (DTSNN_THREADS=1|4) and both SIMD levels (DTSNN_SIMD=off|auto). The
# tests compare thread counts and tiers internally; the ambient values
# additionally cover the env-var plumbing and steer the references. Every
# stage prints its wall time.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage COMMAND...: one timed stage, named by its command (a function below).
stage() {
    local t0=$SECONDS
    echo "== $* (DTSNN_THREADS=${DTSNN_THREADS:-unset} DTSNN_SIMD=${DTSNN_SIMD:-unset}) =="
    "$@"
    echo "-- $*: $((SECONDS - t0)) s"
}

# t CRATE ARGS...: quiet tests of one workspace crate under the ambient knobs.
t() { cargo test -q -p "dtsnn-$1" "${@:2}"; }

# Thread-count invariance: kernels, the evaluation harnesses and their one
# fan-out; `parallel::` holds the nesting test (a fan-out inside a worker runs
# serially — with 4 workers on fewer cores the guard is what keeps the live
# threads at 4); the dataset driver at every window size against a plain loop
# over the solo runner (outcomes, T̂ histogram AND spike activity); the
# Monte-Carlo fault harness's aggregates.
determinism() {
    t tensor thread_count_invariant
    t core thread_count_invariant
    t tensor --lib parallel::
    t core batched
    t core robustness
}

# The layer-level conv and linear plans must never outlive their weights; a
# row that lived through any forward / compact / admit / reset schedule equals
# its solo run (the one carried-state walk, through ResidualBlock too); the
# cached input-prefix rows equal a cache-free forward through any schedule
# and every invalidation route, and the counters say which rows were reused;
# the warmed loops allocate nothing: the timestep loop (f32 and int8), a
# dynamic batch width (batched windows over a resnet run under `determinism`);
# and a gradient of the wrong shape is a typed error from BatchNorm and LIF.
layers() {
    t snn --test weight_plans
    t snn --test carried_state
    t snn --test input_prefix
    t snn warmed_timestep_loop
    t snn allocation_free
    t snn hostile_gradient
}

# The explicit int8 path: packed spike operands, the integer kernel, a
# quantized net end to end, and its own committed goldens.
quantized() {
    t tensor bitset
    t tensor quant
    t snn quantized
    t conformance --test golden_replay quant
}

# The continuous-batching engine (mid-window splice ≡ solo run, bitwise;
# admission and θ-controller properties), a 2-second real-clock smoke of the
# live MPSC reactor, then the sharded cluster: no-fault parity with the
# single server, exactly-once termination under every seeded fault kind.
serving() {
    t serve --test determinism
    t serve --test properties
    DTSNN_SERVE_SMOKE_SECS=2 cargo run --release -q -p dtsnn-bench --bin serving_load
    t serve --test cluster
    t serve --test chaos
}

# Event model ≡ analytical ledger, the flow-shop closed form, and seeded
# annealing trajectories identical at any worker count; then the literal
# pins: simulator reports (both schedules, σ–E on and off, link and buffer
# stalls) and two chip_map searches, recorded before the engine was split
# into its placement-independent and per-placement halves.
simulator() { t imc --test simulator --test sim_pin; }

# Bit for bit, each test pinning thread count and tier per case (the ambient
# values steer the references): the direct convolution and its direct
# backward (dX, dW, db) = their im2col references; LifNeuron's one-pass step
# (both modes) and BPTT loop = the plain-tensor oracle they replaced; the
# grouped BatchNorm Train kernels and the pool backward = their per-channel
# and per-window oracles; then every vector kernel against the scalar
# oracle. (The matmul family = the plain triple loop, tests/zero_skip.rs,
# reads no ambient knob: the workspace run above is all it needs.)
kernels() {
    t tensor --test conv_direct
    t snn --test lif_step
    t tensor --test train_kernels
    t tensor simd
}

# The four committed goldens must replay from either tier with no re-bless
# (regenerate intentionally changed numerics with `cargo run -p
# dtsnn-conformance --bin bless`), and every fuzz oracle must hold.
conformance() {
    t conformance --test golden_replay
    t conformance --test fuzz_smoke
}

# Every `per_tier!` entry must run at its tier's width, which no test can
# see: a body (or a closure inside one) that LLVM declines to inline is
# compiled for the baseline and called from the vector entry — bitwise
# correct, 1.6x slower. So read the release rlib: each
# `dtsnn_tensor::simd::*::avx2` function needs packed ymm arithmetic, each
# `::avx512` one packed zmm arithmetic, and neither may call into a
# `dtsnn_tensor::` symbol. (Calls into core/std/libc are panic paths, memset
# and tanhf.) No entry may contain an FMA: `avx512f` enables the `fma`
# feature, and a fused multiply-add would change the rounding of every
# kernel, so this is where "Rust never contracts" is checked on the binary.
# The classifier head's kernel, `linear_chunk`, the convolution's two
# backward kernels, `conv_weight_grad_chunk` and `conv_input_grad_sample`,
# and the Train path's BatchNorm and pool kernels, `bn_train_forward`,
# `bn_train_backward` and `avg_pool2d_grad`, must be among the entries, and
# the `matmul_nt_chunk` the first replaced must not come back.
vector_width() {
    if ! command -v objdump >/dev/null || [ "$(uname -m)" != x86_64 ]; then
        echo "vector_width: needs objdump on x86_64; skipped"
        return 0
    fi
    # (built as a primary package so cargo links the rlib into release/)
    cargo build --release -q -p dtsnn-tensor
    objdump -dCr --no-show-raw-insn "${CARGO_TARGET_DIR:-target}/release/libdtsnn_tensor.rlib" | awk '
        /^[0-9a-f]+ <.*>:$/ {
            entry = ($0 ~ /<dtsnn_tensor::simd::[a-z0-9_]+::avx(2|512)>:$/) ? $2 : ""
            if (entry) { packed[entry] = 0; reg[entry] = ($0 ~ /::avx512>:$/) ? "zmm" : "ymm" }
            if ($0 ~ /matmul_nt_chunk/) { print "vector_width: " $2 " is back"; bad = 1 }
            next
        }
        !entry { next }
        /R_X86_64_/ {
            if (branch && $0 ~ /dtsnn_tensor::/) { print "vector_width: " entry " calls baseline code:" $0; bad = 1 }
            next
        }
        { branch = ($0 ~ /\t(call|jmp) /) }
        /\tvfn?m(add|sub)/ { print "vector_width: " entry " fuses a multiply and an add:" $0; bad = 1 }
        $0 ~ ("\tv(add|sub|mul)ps .*%" reg[entry]) { packed[entry]++ }
        END {
            for (e in packed) {
                n++
                print "vector_width: " e " " packed[e] " packed " reg[e] " ops"
                if (!packed[e]) { print "vector_width: " e " has no packed " reg[e] " arithmetic"; bad = 1 }
            }
            if (!n) { print "vector_width: no per_tier! entry found in the rlib"; bad = 1 }
            split("avx2 avx512", tiers, " ")
            split("linear_chunk conv_weight_grad_chunk conv_input_grad_sample " \
                  "bn_train_forward bn_train_backward avg_pool2d_grad", required, " ")
            for (r in required) {
                for (i in tiers) {
                    head = "<dtsnn_tensor::simd::" required[r] "::" tiers[i] ">:"
                    if (!(head in packed)) { print "vector_width: no " head " entry"; bad = 1 }
                }
            }
            exit bad
        }'
}

stage cargo build --release
stage vector_width
# the benchmark is a second consumer of the Layer / Snn / core / serve API
# that the workspace build never compiles
stage cargo build --release --offline --manifest-path benchmarks/Cargo.toml
stage cargo test --workspace -q
stage cargo clippy --workspace --all-targets -- -D warnings
for threads in 1 4; do
    export DTSNN_THREADS=$threads
    for s in determinism layers quantized serving simulator; do stage $s; done
    for simd in off auto; do
        DTSNN_SIMD=$simd stage kernels
        DTSNN_SIMD=$simd stage conformance
    done
done
unset DTSNN_THREADS
stage t conformance --test gradient_check
# a CI-sized fault-intensity sweep asserting goodput never collapses
DTSNN_CHAOS_SMOKE=1 stage cargo run --release -q -p dtsnn-bench --bin serving_chaos

echo "ci.sh: all green in $SECONDS s"
