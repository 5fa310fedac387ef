#!/usr/bin/env bash
# Paired A/B of the repository benchmark between two revisions.
#
#   scripts/ab.sh PARENT CHANGE WORKLOAD[,WORKLOAD...] [PAIRS=10] [SECONDS=10]
#
# PARENT and CHANGE are git revisions; CHANGE may also be INDEX, the staged
# tree. Each side is exported (`git archive`, or `git checkout-index` for
# INDEX) into one temporary directory and its benchmark built there with its
# own CARGO_TARGET_DIR, so neither build sees the other's artefacts or the
# working tree's. Then, per workload, PAIRS pairs run untraced: pair i with
# seed i on both sides, the two sides in random order, a random 0-3 s gap
# before every run (the host's noise has slow phases that strict
# alternation can alias onto one side).
#
# For every end-to-end metric of the change's BENCHMARK.json it prints the
# parent's median [IQR], the change's median [IQR], the ratio of the
# medians (change / parent) and the pairs in which the change was strictly
# better in the metric's direction ("identical" when every pair tied). It
# writes nothing inside the repository, needs no network, and removes its
# temporary directory on exit. With AB_RESULTS=FILE it also leaves the raw
# runs in FILE, one "workload seed side metric value" line each (side is
# parent or change), for a gate to read (`scripts/ci.sh trajectory`).
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workloads=$3 pairs=${4:-10} seconds=${5:-10}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# export <rev> <dir>: the committed (or staged) files of one side
export_side() {
    mkdir -p "$2"
    if [ "$1" = INDEX ]; then
        git -C "$repo" checkout-index -a --prefix="$2/"
    else
        git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$1^{commit}")" | tar -x -C "$2"
    fi
}

for side in parent change; do
    rev=$parent
    [ $side = change ] && rev=$change
    export_side "$rev" "$work/$side"
    echo "ab: building $side ($rev)" >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target_$side" \
        cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml)
done

# run <side> <workload> <seed>: one untraced run from its own checkout root;
# appends "workload pair side metric value" lines from its last-line JSON
run() {
    local out
    sleep $((RANDOM % 4))
    if ! out=$(cd "$work/$1" && "$work/target_$1/release/dtsnn-perfbench" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0); then
        echo "ab: $1 $2 seed $3 failed" >&2
        exit 1
    fi
    printf '%s\n' "$out" | tail -n 1 | grep -o '"[a-z0-9_]*": {"value": [^,}]*' |
        sed 's/^"\([a-z0-9_]*\)": {"value": /\1 /' |
        while read -r metric value; do echo "$2 $3 $1 $metric $value"; done >>"$work/results"
}

: >"$work/results"
for workload in ${workloads//,/ }; do
    for pair in $(seq 1 "$pairs"); do
        if ((RANDOM % 2)); then first=parent second=change; else first=change second=parent; fi
        echo "ab: $workload pair $pair/$pairs: $first, then $second" >&2
        run $first "$workload" "$pair"
        run $second "$workload" "$pair"
    done
done

[ -n "${AB_RESULTS:-}" ] && cp "$work/results" "$AB_RESULTS"

# the end-to-end metrics and their directions, in BENCHMARK.json's order
directions=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
    on && /^  \]/ { on = 0 }' "$work/change/BENCHMARK.json")

echo "parent $parent, change $change, $pairs pairs of ${seconds}-second runs"
for workload in ${workloads//,/ }; do
    echo
    echo "$workload"
    printf '  %-16s %-30s %-30s %8s %6s\n' metric "parent median [IQR]" "change median [IQR]" ratio wins
    printf '%s\n' "$directions" | while read -r metric better; do
        awk -v w="$workload" -v m="$metric" -v better="$better" -v pairs="$pairs" '
            function sort(a, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            # linear interpolation between order statistics
            function q(a, n, p,    h, l) {
                h = 1 + (n - 1) * p; l = int(h)
                return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
            }
            $1 == w && $4 == m { v[$3, $2] = $5; seen[$2] = 1 }
            END {
                for (s in seen) {
                    np++; p[np] = v["parent", s]
                    nc++; c[nc] = v["change", s]
                    d = v["change", s] - v["parent", s]
                    if ((better == "higher" && d > 0) || (better == "lower" && d < 0)) wins++
                    if (d == 0) same++
                }
                if (!np) exit
                sort(p, np); sort(c, nc)
                pm = q(p, np, 0.5); cm = q(c, nc, 0.5)
                printf "  %-16s %-30s %-30s %8s %3d/%d%s\n", m,
                    sprintf("%.6g [%.6g, %.6g]", pm, q(p, np, 0.25), q(p, np, 0.75)),
                    sprintf("%.6g [%.6g, %.6g]", cm, q(c, nc, 0.25), q(c, nc, 0.75)),
                    pm == 0 ? "-" : sprintf("%.4f", cm / pm), wins, pairs,
                    same == np ? "  identical" : ""
            }' "$work/results"
    done
done
