#!/usr/bin/env bash
# Tier-1 verification gate + hermetic-build policy check.
#
# The workspace must build and test **offline with an empty cargo
# registry**: every crate in the dependency graph has to live in this
# repository. xt-harness (crates/harness) supplies the PRNG and
# property-testing substrate that external crates (rand/proptest/serde)
# used to provide; host speed is measured by benchmark/ (its own leg
# below), not by `cargo bench`.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, all targets, offline) =="
# --workspace: the report binaries the later legs run (xt-stat,
# xt-figures) belong to xt-perf and xt-bench, which the root package
# does not depend on.
cargo build --release --offline --workspace --all-targets

echo "== test (workspace, offline) =="
cargo test -q --offline --workspace

echo "== test (xt-mem, release profile) =="
# benchmark/ and the report binaries run the memory hierarchy only in
# release, the suites above only in debug; its unit and property tests
# (counters == fold of the events, live and replayed) must hold in the
# profile that is measured too.
cargo test -q --release --offline -p xt-mem

echo "== test (xt-core, release profile) =="
# Likewise the core: the structural-resource differentials
# (crates/core/src/resources.rs) and the full-window resume test must
# hold with debug_assert! off and wrapping arithmetic, the profile every
# host-speed number is measured under.
cargo test -q --release --offline -p xt-core

echo "== test matrix: cluster engine thread counts =="
# The epoch-barriered cluster engine promises bit-identical results for
# any XT_THREADS value; run the multicore-sensitive suites at both ends
# of the matrix.
for threads in 1 4; do
    echo "-- XT_THREADS=$threads --"
    XT_THREADS=$threads cargo test -q --offline -p xt-soc
    XT_THREADS=$threads cargo test -q --offline \
        --test determinism --test litmus --test mem_events
done

echo "== host heap footprint (release) =="
# What a 4-core replica, ClusterSim::new and a private-slice cluster run
# hold on the heap, against budgets of the measurement + 10 %
# (docs/CLUSTER.md, "Footprint"); a peer's TLB that a run materializes
# fails it too. The breakdown is printed.
cargo test -q --release --offline --test footprint -- --nocapture

echo "== test matrix: decoded-block fast path on/off =="
# The block-cache execution engine (docs/FASTPATH.md) must be
# architecturally invisible; run the SMC/differential/trace-sensitive
# suites with it force-disabled and force-enabled.
for fp in 0 1; do
    echo "-- XT_FASTPATH=$fp --"
    XT_FASTPATH=$fp cargo test -q --offline -p xt-emu
    XT_FASTPATH=$fp cargo test -q --offline \
        --test smc --test determinism --test golden_trace \
        --test mem_events --test mem_chrome_golden
done

echo "== test matrix: interrupt delivery + scheduler smoke =="
# The asynchronous-interrupt path (docs/INTERRUPTS.md) must deliver at
# the same retired instruction on every engine: the suite pins the
# scheduler workload's exit code and retired count, and the cluster
# identity test compares 1/2/4-core runs across engines. Sweep the
# full fastpath x thread-count matrix.
for fp in 0 1; do
    for threads in 1 4; do
        echo "-- XT_FASTPATH=$fp XT_THREADS=$threads --"
        XT_FASTPATH=$fp XT_THREADS=$threads \
            cargo test -q --offline --test interrupts
    done
done

echo "== test matrix: vector pipeline (fastpath x threads) =="
# The RVV lane-slice model and the auto-vectorizer must be invariant to
# the execution-engine matrix: vecbench kernels (all four compile cells)
# and the xt-check vector differential run with the block cache on/off
# and at both ends of the cluster thread matrix.
for fp in 0 1; do
    for threads in 1 4; do
        echo "-- XT_FASTPATH=$fp XT_THREADS=$threads --"
        XT_FASTPATH=$fp XT_THREADS=$threads \
            cargo test -q --offline -p xt-vector
        XT_FASTPATH=$fp XT_THREADS=$threads \
            cargo test -q --offline -p xt-workloads vecbench
        XT_FASTPATH=$fp XT_THREADS=$threads \
            cargo test -q --offline -p xt-check vector
    done
done

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== xt-check conformance smoke (fixed suite seed) =="
# 64 random programs: emulator vs. host oracle conformance plus
# timing-model invariants, cluster invariants, the fast-path SMC
# differential, the interrupt-delivery differential (random
# timer-preempted workloads on the real device bus), and the
# snapshot/resume phase (random workloads cut at random points must
# resume bit-identically); --self-test additionally injects an oracle
# fault and requires a shrunk, seed-replayable counterexample.
cargo run --release --offline -p xt-check -- --cases 64 --self-test

echo "== rustdoc (no-deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== MIPS floors (release; fast path never slower) =="
# Wall-clock guard on the decoded-block engine: the cached emulator must
# be at least as fast as per-step decode (in practice ~3-10x), and the
# step driver and an OooSession must each keep their stated fraction of
# Emulator::run's speed (multicore::STEP_DRIVER_FLOOR, OOO_SESSION_FLOOR),
# and a 4-core ClusterSim its fraction of one OooSession's on the
# private-slice kernel (multicore::CLUSTER4_FLOOR).
cargo test -q --release --offline -p xt-bench -- --ignored mips_floors

echo "== xt-stat smoke (telemetry dashboard + regression gate) =="
# The observability report must run end-to-end and match the committed
# smoke baseline exactly: every number in the file is compared, and both
# documents must pass the artifact's conservation laws (stall causes plus
# unattributed and the signed top-down buckets each sum to cycles, miss
# classes to misses, snoop matrices to snoops_sent). The gate must prove
# it catches injected regressions, including fabricated event counts,
# which the selftest injects and must see rejected. The smoke run embeds
# no host time, and writes the depchain pipeline trace.
stat_dir=$(mktemp -d)
repo_root=$(pwd)
(cd "$stat_dir" && "$repo_root/target/release/xt-stat" --smoke)
grep -q '"engine": null' "$stat_dir/BENCH_perf.json"
test -s "$stat_dir/TRACE_depchain.kanata"
test -s "$stat_dir/TRACE_depchain_chrome.json"
echo "OK: smoke run embeds no host time, depchain Konata and Chrome traces written"
"$repo_root/target/release/xt-stat" diff \
    baselines/BENCH_perf_smoke.json "$stat_dir/BENCH_perf.json" --tolerance 0
"$repo_root/target/release/xt-stat" selftest \
    baselines/BENCH_perf_smoke.json --tolerance 0.05
# Hand-forged candidates must be refused with the right exit code: an
# event-count mismatch (miss classes no longer summing to the miss
# total) is structural (2) even at a loose tolerance; a changed series
# point, which no conservation law covers, is a number out of tolerance
# (1); a hostile 200k-deep document is a parse error (2), not a crash.
python3 -c '
import json, sys
src, out = sys.argv[1], sys.argv[2]
doc = json.load(open(src))
doc["runs"][0]["memory"]["compulsory"] += 1
json.dump(doc, open(out + "/forged_count.json", "w"))
doc = json.load(open(src))
doc["runs"][0]["series"]["ipc"][1] += 0.5
json.dump(doc, open(out + "/forged_series.json", "w"))
open(out + "/deep.json", "w").write("[" * 200000 + "]" * 200000)
' "$stat_dir/BENCH_perf.json" "$stat_dir"
expect_exit() {
    local want=$1 got=0
    shift
    "$@" >/dev/null 2>&1 || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "ERROR: exit $got, expected $want: $*" >&2
        exit 1
    fi
}
expect_exit 2 "$repo_root/target/release/xt-stat" diff \
    baselines/BENCH_perf_smoke.json "$stat_dir/forged_count.json" --tolerance 0.5
expect_exit 1 "$repo_root/target/release/xt-stat" diff \
    baselines/BENCH_perf_smoke.json "$stat_dir/forged_series.json" --tolerance 0
expect_exit 2 "$repo_root/target/release/xt-stat" diff \
    "$stat_dir/deep.json" "$stat_dir/deep.json"
echo "OK: forged event count, forged series point and over-nested file refused by the diff gate"
rm -rf "$stat_dir"

echo "== xt-figures smoke (vector figure artifact + gate) =="
# The Figs. 18-20 artifact must run end-to-end, emit parseable JSON with
# the expected schema and full 4x4 ablation grid, show the headline
# >=2x rv64gcv/tuned element-IPC uplift, match the committed baseline
# byte-for-byte at tolerance 0, and prove its own gate flags injected
# regressions.
fig_dir=$(mktemp -d)
repo_root=$(pwd)
(cd "$fig_dir" && "$repo_root/target/release/xt-figures" --smoke)
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "xt-figures/v1", doc.get("schema")
assert doc["smoke"] is True
assert doc["vlen"] == 128
grid = doc["grid"]
assert len(grid) == 16, len(grid)
cells = {(g["kernel"], g["isa"], g["tuning"]) for g in grid}
assert len(cells) == 16, "grid cells must be unique"
for g in grid:
    assert g["cycles"] > 0 and g["instructions"] > 0, g
    assert g["vec_busy_cycles"] <= g["cycles"], g
    if g["isa"] == "rv64gc":
        assert g["vec_busy_cycles"] == 0, ("scalar cell charged vector", g)
sp = {s["kernel"]: s["elem_ipc_ratio"] for s in doc["speedup"]}
assert len(sp) == 4 and max(sp.values()) >= 2.0, sp
figs = {f["name"] for f in doc["figures"]}
assert figs == {"fig18", "fig19", "fig20"}, figs
for f in doc["figures"]:
    assert f["rows"], f["name"]
print("OK: BENCH_figures.json parses, 16-cell grid, >=2x vector uplift "
      "(best %.2fx), figs 18-20 present" % max(sp.values()))
' "$fig_dir/BENCH_figures.json"
"$repo_root/target/release/xt-figures" diff \
    baselines/BENCH_figures_smoke.json "$fig_dir/BENCH_figures.json" --tolerance 0
"$repo_root/target/release/xt-figures" selftest \
    baselines/BENCH_figures_smoke.json --tolerance 0.05
# The same refusals as the xt-stat leg: one changed cycle count is out
# of tolerance (1), one changed kernel name is structural (2), and a
# hostile nest of objects is a parse error (2).
python3 -c '
import json, sys
src, out = sys.argv[1], sys.argv[2]
doc = json.load(open(src))
doc["grid"][0]["cycles"] += 1
json.dump(doc, open(out + "/forged_cycles.json", "w"))
doc = json.load(open(src))
doc["grid"][0]["kernel"] += "x"
json.dump(doc, open(out + "/forged_kernel.json", "w"))
open(out + "/deep.json", "w").write("{\"k\":" * 200000 + "1" + "}" * 200000)
' "$fig_dir/BENCH_figures.json" "$fig_dir"
expect_exit 1 "$repo_root/target/release/xt-figures" diff \
    baselines/BENCH_figures_smoke.json "$fig_dir/forged_cycles.json" --tolerance 0
expect_exit 2 "$repo_root/target/release/xt-figures" diff \
    baselines/BENCH_figures_smoke.json "$fig_dir/forged_kernel.json" --tolerance 0.5
expect_exit 2 "$repo_root/target/release/xt-figures" diff \
    "$fig_dir/deep.json" "$fig_dir/deep.json"
echo "OK: forged cycle count, forged kernel name and over-nested file refused by the diff gate"
rm -rf "$fig_dir"

echo "== snapshot/resume identity (docs/SNAPSHOT.md) =="
# Every SnapshotState impl is one field list, a `transfer` that encodes
# and decodes (docs/SNAPSHOT.md, "Writing a transfer"): a hand-paired
# save (through `&self`, or taking an encoder) or a restore taking a
# decoder must not creep back. A frame-level `save(&mut self)` (Session,
# ClusterSim) takes no encoder and is not matched.
paired=$(grep -rnE 'fn save\(&self|fn save\(&mut self, |fn restore\(&mut self, d' \
    crates/*/src --include='*.rs' | grep -v '^crates/snapshot/' || true)
if [ -n "$paired" ]; then
    echo "ERROR: hand-paired save/restore outside xt-snapshot (write a transfer):" >&2
    echo "$paired" >&2
    exit 1
fi
echo "OK: every snapshotted structure is one transfer"
# Whole-simulation save/restore: the resume matrix (sessions, clusters,
# interrupts, tracers, samplers), file-level error paths, the committed
# golden frame and the pinned frames it does not reach — a SnapshotState
# wire-layout change without a deliberate xt_snapshot::VERSION bump fails
# here — and the re-sealed corruption sweep (no forged frame may panic a
# restore). Run under both execution engines: frames must move freely
# across XT_FASTPATH settings.
for fp in 0 1; do
    echo "-- XT_FASTPATH=$fp --"
    XT_FASTPATH=$fp cargo test -q --offline \
        --test snapshot_resume --test snapshot_golden --test snapshot_errors \
        --test snapshot_frames --test snapshot_sweep
done
# The xt-stat matrix with every session and its sampler crossing a
# save/restore frame each 777 instructions must render a byte-identical
# BENCH_perf.json, in the profile the report is generated in.
cargo test -q --release --offline -p xt-perf snapshotted_matrix_matches_uninterrupted

echo "== xt-hostbench self-test (benchmark/README.md) =="
# The host-speed benchmark is a workspace of its own, so nothing above
# builds it. Its unit tests cover the estimators and the result
# contract; --smoke runs shrunken jobs of all four workloads and exits
# non-zero on a wrong exit code, instruction count or digest, so a
# change that breaks what BENCHMARK.json measures fails here, not in a
# later measurement.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "== scripts/profile.sh parses =="
# The SIGPROF profiler (EXPERIMENTS.md, "Host speed, PR 22") is a
# measuring tool, not a gate: only its syntax is checked here.
bash -n scripts/profile.sh

echo "== hermetic dependency check =="
# Workspace-local (path) packages have "source": null in cargo metadata;
# anything from a registry, git, or vendored source is a policy violation.
external=$(cargo metadata --format-version 1 --offline |
    python3 -c '
import json, sys
meta = json.load(sys.stdin)
ext = sorted(p["name"] for p in meta["packages"] if p.get("source") is not None)
print("\n".join(ext))
')
if [ -n "$external" ]; then
    echo "ERROR: non-workspace dependencies found:" >&2
    echo "$external" >&2
    exit 1
fi
echo "OK: dependency graph contains only workspace-local crates"

echo "== fixtures untouched =="
# Every leg above compares against the committed fixtures and baselines;
# none may rewrite them. A stray XT_BLESS=1 in the environment re-blesses
# instead of comparing and every gate still passes, so look at the files
# themselves. Outside a git checkout (a source tarball) there is nothing
# to compare against.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    touched=$(git status --porcelain -- tests/fixtures baselines BENCH_perf.json REPORT_perf.md)
    if [ -n "$touched" ]; then
        echo "ERROR: fixtures differ from the commit (a deliberate re-bless is committed before ci.sh runs):" >&2
        echo "$touched" >&2
        exit 1
    fi
    echo "OK: tests/fixtures, baselines, BENCH_perf.json, REPORT_perf.md as committed"
else
    echo "skipped: not a git checkout"
fi

echo "== ci.sh: all gates green =="
