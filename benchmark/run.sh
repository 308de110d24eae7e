#!/usr/bin/env bash
# xt-hostbench driver. Run from the repository root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   bash benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       the four workloads (untraced: one process each; traced: one
#       process, the shared ladder climbed once), then a summary
#   bash benchmark/run.sh --repeat [--seed N] [--seconds S]
#       A B C D D C B A, then the A/A gate: non-zero exit if any
#       end-to-end metric differs between the two sets by more than
#       its bound
#   bash benchmark/run.sh --smoke
#       shrunken jobs, every declared name checked, < 15 s
#   bash benchmark/run.sh --print-benchmark-json
#       what BENCHMARK.json must contain, byte for byte
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(emu_func ooo_core mem_stream cluster4)

# The simulator's environment knobs must not leak into a measurement:
# fast path and thread count are set explicitly in the benchmark's code.
unset XT_FASTPATH XT_THREADS XT_HARNESS_SEED XT_HARNESS_CASES

# Freed memory stays in the process: with glibc's defaults every OooCore,
# MemSystem and ClusterSim is built in freshly mapped memory and unmapped
# again (1.3 M page faults per 10 s of ooo_core), and this VM serves page
# faults at a speed that changes by half for minutes at a time (README,
# protocol rule 5). The largest value glibc takes for mmap_threshold is
# 32 MiB; other allocators ignore the variable.
export GLIBC_TUNABLES="glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432"

mode=all
workload=""
seed=910
seconds=30
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; mode=one; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --repeat) mode=repeat; shift ;;
        --smoke) mode=smoke; shift ;;
        --print-benchmark-json) mode=print; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build once, from source, offline. A relative CARGO_TARGET_DIR is
# relative to the directory run.sh is called from, as cargo reads it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/xt-hostbench"
out="$here/out"

{
    echo "xt-hostbench: nproc $(nproc), $(rustc -V)"
    echo "xt-hostbench: commit $(git -C "$here" rev-parse HEAD 2>/dev/null || echo '(not a git checkout)')"
} >&2

run_one() { # workload -> result line on stdout
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out"
}

run_line() { # workload -> "<workload> <result line>"; a failed run stops the script
    local line
    line="$(run_one "$1" | tail -n 1)"
    echo "$1 $line"
}

case "$mode" in
    print) exec "$bin" --print-benchmark-json ;;
    smoke) exec "$bin" --smoke --out "$out" ;;
    one) run_one "$workload" ;;
    all)
        mkdir -p "$out"
        if [ "$trace" = 1 ]; then
            # one process: the ladder over the four job lists is climbed once
            args=()
            for w in "${workloads[@]}"; do args+=(--workload "$w"); done
            traced="$("$bin" "${args[@]}" --seed "$seed" --trace 1 --out "$out")"
            paste -d ' ' <(printf '%s\n' "${workloads[@]}") <(echo "$traced") | tee "$out/all.txt"
        else
            : > "$out/all.txt"
            for w in "${workloads[@]}"; do
                run_line "$w" | tee -a "$out/all.txt"
            done
        fi
        runs="$(sed -e 's/^\([^ ]*\) \(.*\)$/{"workload": "\1", "result": \2}/' "$out/all.txt" | paste -s -d ,)"
        echo "{\"seed\": $seed, \"seconds\": $seconds, \"trace\": $trace, \"runs\": [$runs], \"claim\": null}"
        ;;
    repeat)
        mkdir -p "$out"
        : > "$out/repeat-first.txt"
        : > "$out/repeat-second.txt"
        for w in "${workloads[@]}"; do
            run_line "$w" | tee -a "$out/repeat-first.txt" >&2
        done
        for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
            run_line "${workloads[$i]}" | tee -a "$out/repeat-second.txt" >&2
        done
        "$bin" --gate "$out/repeat-first.txt" "$out/repeat-second.txt"
        echo '{"claim": null}'
        ;;
esac
