#!/usr/bin/env bash
# The full gate: build, the whole test suite and lint once, then the suites
# that must not depend on the two runtime knobs re-run: those that reach a
# fan-out (core's samples, the IMC search, the serving layer) at
# both ambient worker counts (DTSNN_THREADS=1|4), the kernel and conformance
# suites at both SIMD levels (DTSNN_SIMD=off|auto). The tests compare thread
# counts and tiers internally; the ambient values additionally cover the
# env-var plumbing and steer the references. Every stage prints its wall
# time.
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

# Thread-count invariance: the evaluation harnesses and their one fan-out
# (the kernels run on their caller's thread); `parallel::` holds the nesting
# test (a fan-out inside a worker runs serially — with 4 workers on fewer
# cores the guard is what keeps the live threads at 4); the dataset driver at
# every window size against a plain loop over the solo runner (outcomes, T̂
# histogram AND spike activity); the static evaluation, which drives the
# same one-row window with an exit that never fires, against the plain
# forward_sequence loop it replaced (accuracy at every budget AND spike
# activity, vgg and resnet, static and event samples) and its warmed pass
# allocation-free; the Monte-Carlo fault harness's aggregates.
determinism() {
    t core thread_count_invariant
    t tensor --lib parallel::
    t core batched
    t core static_evaluation
    t core robustness
}

# The layer-level conv and linear plans must never outlive their weights; a
# row that lived through any forward / compact / admit / reset schedule equals
# its solo run (the one carried-state walk, through ResidualBlock too); the
# cached input-prefix rows equal a cache-free forward through any schedule
# and every invalidation route, and the counters say which rows were reused;
# the warmed loops allocate nothing: the timestep loop, a dynamic batch width
# (a warmed per-sample resnet pass runs under `determinism`) and a training
# step's forward window, BPTT and SGD update;
# a gradient of the wrong shape is a typed error from BatchNorm and LIF; and
# a net that ran a Train sequence survives save → load with bitwise Eval
# logits (the state walk reaches BatchNorm's running statistics).
layers() {
    t snn --test weight_plans
    t snn --test carried_state
    t snn --test input_prefix
    t snn --test checkpoint_roundtrip
    t snn warmed_timestep_loop
    t snn allocation_free
    t snn --test train_arena
    t snn hostile_gradient
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
# annealing trajectories identical at any worker count; exit runs: a
# sequential exit at T̂ ≡ a T̂-step run, a pipelined exit drains what is in
# flight (T̂ ≤ executed ≤ T, never cheaper than sequential, T̂ = T ≡ the
# plain run), hostile T̂ a typed error; then the literal pins: simulator
# reports (both schedules, σ–E on and off, link and buffer stalls) and two
# chip_map searches, recorded before the engine was split into its
# placement-independent and per-placement halves.
simulator() { t imc --test simulator --test sim_pin; }

# Bit for bit, each test pinning the tier per case (the ambient level steers
# the references): the direct convolution and its direct backward (dX, dW,
# db) = their im2col references; LifNeuron's one-pass step (both modes) and
# BPTT loop = the plain-tensor oracle they replaced; the grouped BatchNorm
# Train kernels and the pool backward = their per-channel and per-window
# oracles; then every vector kernel against the scalar oracle. (The matmul
# family = the plain triple loop, tests/zero_skip.rs, reads no ambient knob:
# the workspace run above is all it needs.)
kernels() {
    t tensor --test conv_direct
    t snn --test lif_step
    t tensor --test train_kernels
    t tensor simd
}

# The two committed goldens must replay from either tier with no re-bless
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
# The classifier head's kernel, `linear_chunk`, the convolution's scatter,
# `conv_scatter_sample` (its literal-extent instantiations live inside it —
# stride 1 3×3 at c_out 32 and 64, stride 2 3×3 and 1×1 at c_out 64, and the
# runtime-extent walk: one that stopped inlining would run at the baseline,
# bitwise correct and without the gain), its epilogue, `conv_epilogue` (tile
# -> NCHW with the bias add, and NCHW -> rows for the backward, with literal
# (c_out, ow) at (32, 16), (64, 8) and (64, 4) and a runtime-extent arm), its
# two backward kernels,
# `conv_weight_grad_chunk` (the same instantiations) and
# `conv_input_grad_sample`, and the Train path's BatchNorm and pool kernels,
# `bn_train_forward`, `bn_train_backward` and `avg_pool2d_grad`, must be
# among the entries, and the `matmul_nt_chunk` the first replaced must not
# come back.
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
            split("linear_chunk conv_scatter_sample conv_epilogue conv_weight_grad_chunk " \
                  "conv_input_grad_sample bn_train_forward bn_train_backward " \
                  "avg_pool2d_grad", required, " ")
            for (r in required) {
                for (i in tiers) {
                    head = "<dtsnn_tensor::simd::" required[r] "::" tiers[i] ">:"
                    if (!(head in packed)) { print "vector_width: no " head " entry"; bad = 1 }
                }
            }
            exit bad
        }'
}

# Opt-in, `scripts/ci.sh trajectory` (about 15 minutes; run nothing else
# meanwhile): the staged tree (`git add` first) against the anchor commit of
# BENCH_TRAJECTORY.json, five pairs of `scripts/ab.sh` on the workloads of
# its last entry. A metric fails when its median ratio to the anchor falls
# short of the last entry's ratio by more than the metric's BENCHMARK.json
# bound, in its direction, and at least 4 of the 5 pairs fall short of it
# too; a lone noisy phase of the host cannot fail it. The default run does
# not include it.
trajectory() {
    local last anchor workloads results bounds
    # the last entry's "workload metric ratio" lines (one record per line)
    last=$(awk '/"pr":/ { out = "" } { out = out $0 "\n" } END { printf "%s", out }' \
        BENCH_TRAJECTORY.json |
        sed -n 's/.*"workload": "\([a-z_]*\)", "metric": "\([a-z0-9_]*\)".*"ratio": \([-0-9.e+]*\).*/\1 \2 \3/p')
    anchor=$(sed -n 's/^ *"anchor": "\([0-9a-f]*\)",$/\1/p' BENCH_TRAJECTORY.json)
    workloads=$(printf '%s\n' "$last" | awk '!seen[$1]++ { printf "%s%s", sep, $1; sep = "," }')
    if [ -z "$last" ] || [ -z "$anchor" ]; then
        echo "trajectory: no anchor or no recorded ratio in BENCH_TRAJECTORY.json"
        return 1
    fi
    results=$(mktemp)
    trap "rm -f '$results'" EXIT
    AB_RESULTS=$results scripts/ab.sh "$anchor" INDEX "$workloads" 5
    # "metric better bound" of every end-to-end metric
    bounds=$(awk '
        /"end_to_end"/ { on = 1 }
        on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
        on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
        on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
        on && /^  \]/ { on = 0 }' BENCHMARK.json)
    awk -v pairs=5 '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function median(a, n) { sort(a, n); return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
        # worse(r, ref): ratio r is on the wrong side of ref by more than slack
        function worse(r, ref, m, slack) {
            return better[m] == "higher" ? r < ref * (1 - slack) : r > ref * (1 + slack)
        }
        FILENAME == ARGV[1] { better[$1] = $2; bound[$1] = $3; next }
        FILENAME == ARGV[2] { old[++n] = $3; w[n] = $1; m[n] = $2; next }
        { v[$1, $4, $3, $2] = $5 }
        END {
            for (k = 1; k <= n; k++) {
                if (!(m[k] in bound)) continue
                np = 0; lost = 0
                for (s = 1; s <= pairs; s++) {
                    a = v[w[k], m[k], "parent", s]; c = v[w[k], m[k], "change", s]
                    if (a == "" || c == "") continue
                    np++; pa[np] = a; pc[np] = c
                    if (a != 0 && worse(c / a, old[k], m[k], 0)) lost++
                }
                if (!np) { printf "trajectory: %s %s: no runs\n", w[k], m[k]; bad = 1; continue }
                am = median(pa, np); cm = median(pc, np)
                r = am == 0 ? old[k] : cm / am
                fail = worse(r, old[k], m[k], bound[m[k]]) && lost >= 0.8 * pairs
                printf "trajectory: %-14s %-15s ratio %.4f, last entry %.4f, bound %s, %d/%d pairs short%s\n",
                    w[k], m[k], r, old[k], bound[m[k]], lost, np, fail ? "  FAIL" : ""
                bad = bad || fail
            }
            exit bad
        }' <(printf '%s\n' "$bounds") <(printf '%s\n' "$last") "$results"
}

if [ "${1:-}" = trajectory ]; then
    stage trajectory
    echo "ci.sh: trajectory green in $SECONDS s"
    exit 0
fi

stage cargo build --release
stage vector_width
# the benchmark is a second consumer of the Layer / Snn / core / serve API
# that the workspace build never compiles
stage cargo build --release --offline --manifest-path benchmarks/Cargo.toml
stage cargo test --workspace -q
stage cargo clippy --workspace --all-targets -- -D warnings
# no suite of these reaches a fan-out: one run each (kernels once per level)
for simd in off auto; do DTSNN_SIMD=$simd stage kernels; done
stage layers
for threads in 1 4; do
    export DTSNN_THREADS=$threads
    for s in determinism serving simulator; do stage $s; done
    for simd in off auto; do DTSNN_SIMD=$simd stage conformance; done
done
unset DTSNN_THREADS
stage t conformance --test gradient_check
# a CI-sized fault-intensity sweep asserting goodput never collapses
DTSNN_CHAOS_SMOKE=1 stage cargo run --release -q -p dtsnn-bench --bin serving_chaos

echo "ci.sh: all green in $SECONDS s"
