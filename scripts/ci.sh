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
# Every engine and thread-count choice is made in code by the suites
# themselves (`set_fastpath`, `with_fastpath`, `run_threads`), so each
# suite runs once. Each leg starts with `leg NAME`; the wall-clock
# seconds per leg and the total print at the end.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

timings="" leg_name="" leg_start=$SECONDS
leg() {
    if [ -n "$leg_name" ]; then
        timings+=$(printf '%5d s  %s' $((SECONDS - leg_start)) "$leg_name")$'\n'
    fi
    leg_name=$1 leg_start=$SECONDS
    echo "== $1 =="
}

leg "build (release, all targets, offline)"
# --workspace: the report binaries the later legs run (xt-stat,
# xt-figures) belong to xt-perf and xt-bench, which the root package
# does not depend on.
cargo build --release --offline --workspace --all-targets

leg "test (workspace, offline)"
cargo test -q --offline --workspace

leg "test (xt-mem, release profile)"
# benchmark/ and the report binaries run the memory hierarchy only in
# release, the suites above only in debug; its unit and property tests
# (counters == fold of the events, live and replayed) must hold in the
# profile that is measured too.
cargo test -q --release --offline -p xt-mem

leg "test (xt-core, release profile)"
# Likewise the core: the structural-resource differentials
# (crates/core/src/resources.rs) and the full-window resume test must
# hold with debug_assert! off and wrapping arithmetic, the profile every
# host-speed number is measured under.
cargo test -q --release --offline -p xt-core

leg "test (golden traces + frames, release profile)"
# Both cores' hand-checked stage tables, their Konata/Chrome renders and
# the pinned snapshot frames (tests/fixtures), byte for byte, in the
# profile the benchmark measures: the workspace leg runs them in debug.
cargo test -q --release --offline --test golden_trace --test snapshot_frames

leg "test (xt-emu, release profile)"
# And the emulator, whose per-instruction path is what every host-speed
# number is measured on: guest arithmetic must agree between the two
# profiles (debug panics on an overflow that release wraps), and its
# #[inline] step boundaries exist only in release.
cargo test -q --release --offline -p xt-emu

leg "test (xt-soc, release profile)"
# And the cluster: each core pulls one record per TraceSource::fill in
# its slice and at the barrier release, and cluster4 is measured in
# release, so the engine's own suites (thread-count agreement, atomics
# serialised at the barrier, the timeline, the devices) must hold with
# debug_assert! off too.
cargo test -q --release --offline -p xt-soc

leg "test (cluster suites, release profile)"
# The cluster's integration suites (determinism across thread counts
# and engines, litmus outcomes, cross-core self-modifying code, memory
# events, snapshot resume) in the profile cluster4 is measured in, where
# an arithmetic overflow wraps instead of panicking: the shared L2's
# 32-bit LRU stamps and the published guest pages run here as there.
cargo test -q --release --offline --test determinism --test litmus --test smc --test mem_events --test snapshot_resume

leg "host heap footprint (release)"
# What a 4-core replica, ClusterSim::new and a private-slice cluster run
# hold on the heap, against budgets of the measurement + 10 %
# (docs/CLUSTER.md, "Footprint"); a peer's TLB that a run materializes,
# or an emulator holding a peer's slice, fails it too. The breakdown is
# printed.
cargo test -q --release --offline --test footprint -- --nocapture

leg "lint (clippy, warnings are errors)"
cargo clippy --workspace --offline --all-targets -- -D warnings

leg "xt-check conformance smoke (fixed suite seed)"
# Every phase of xt_check::PHASES, the rows the unit tests run at fewer
# cases: 64 random programs (emulator vs. host oracle conformance plus
# timing-model invariants), cluster invariants, the fast-path SMC
# differential, the interrupt-delivery differential (random
# timer-preempted workloads on the real device bus), the vector grid,
# and the snapshot/resume phase (random workloads cut at random points
# must resume bit-identically); --self-test additionally injects an
# oracle fault and requires a shrunk, seed-replayable counterexample.
cargo run --release --offline -p xt-check -- --cases 64 --self-test

leg "rustdoc (no-deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

leg "MIPS floors (release; fast path never slower)"
# Four wall-clock floors, all ratios of one build's own speeds: the
# cached emulator at least as fast as per-step decode; the step driver
# (a loop of one-record TraceSource::fill calls, what a cluster core or
# a Session::step loop pays before its timing model) and an OooSession
# (block fills under the out-of-order model) each above their fraction
# of Emulator::run's MIPS (multicore::STEP_DRIVER_FLOOR,
# OOO_SESSION_FLOOR); and a 4-core ClusterSim above its fraction of one
# OooSession's on the private-slice kernel (multicore::CLUSTER4_FLOOR).
cargo test -q --release --offline -p xt-bench -- --ignored mips_floors

leg "xt-stat smoke (telemetry dashboard + regression gate)"
# The observability report must run end-to-end and match the committed
# smoke baseline exactly: every number in the file is compared, and both
# documents must keep the conservation laws they carry (the table in
# docs/OBSERVABILITY.md, "Conservation laws"). The gate must prove it
# catches injected regressions, including a forged term of each law,
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

leg "xt-figures (every paper figure + vector grid, one artifact + gate)"
# The figures artifact must run end-to-end, emit parseable JSON with the
# expected schema, full 4x4 ablation grid and every figure in order, show
# the headline >=2x rv64gcv/tuned element-IPC uplift, carry a numeric
# err on every figure that quotes the paper, match the committed baseline
# at tolerance 0, and prove its own gate flags injected regressions.
fig_dir=$(mktemp -d)
repo_root=$(pwd)
(cd "$fig_dir" && "$repo_root/target/release/xt-figures")
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "xt-figures/v2", doc.get("schema")
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
names = [f["name"] for f in doc["figures"]]
assert names == ["fig18", "fig19", "fig20", "table2", "fig17", "fig21", "specint",
                 "vector_mac", "blockchain", "asid", "ablations", "multicore",
                 "snoop"], names
for f in doc["figures"]:
    assert f["rows"], f["name"]
    quotes = any(r["paper"] is not None for r in f["rows"])
    assert isinstance(f["err"], float) if quotes else f["err"] is None, (f["name"], f["err"])
print("OK: BENCH_figures.json parses, 16-cell grid, >=2x vector uplift "
      "(best %.2fx), %d figures in order, err on each that quotes the paper"
      % (max(sp.values()), len(names)))
' "$fig_dir/BENCH_figures.json"
"$repo_root/target/release/xt-figures" diff \
    baselines/BENCH_figures_smoke.json "$fig_dir/BENCH_figures.json" --tolerance 0
"$repo_root/target/release/xt-figures" selftest \
    baselines/BENCH_figures_smoke.json --tolerance 0.05
# The same refusals as the xt-stat leg: one changed cycle count is out
# of tolerance (1), one changed kernel name is structural (2), a figure
# err that its rows do not give breaks the artifact law (2), and a
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
doc = json.load(open(src))
doc["figures"][0]["err"] += 1
json.dump(doc, open(out + "/forged_err.json", "w"))
open(out + "/deep.json", "w").write("{\"k\":" * 200000 + "1" + "}" * 200000)
' "$fig_dir/BENCH_figures.json" "$fig_dir"
expect_exit 1 "$repo_root/target/release/xt-figures" diff \
    baselines/BENCH_figures_smoke.json "$fig_dir/forged_cycles.json" --tolerance 0
expect_exit 2 "$repo_root/target/release/xt-figures" diff \
    baselines/BENCH_figures_smoke.json "$fig_dir/forged_kernel.json" --tolerance 0.5
expect_exit 2 "$repo_root/target/release/xt-figures" diff \
    baselines/BENCH_figures_smoke.json "$fig_dir/forged_err.json" --tolerance 0.5
expect_exit 2 "$repo_root/target/release/xt-figures" diff \
    "$fig_dir/deep.json" "$fig_dir/deep.json"
echo "OK: forged cycle count, kernel name, figure err and over-nested file refused by the diff gate"
rm -rf "$fig_dir"

leg "snapshot/resume identity (docs/SNAPSHOT.md)"
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
# The whole-simulation suites (snapshot_resume, _golden, _errors, _frames,
# _sweep, both engines chosen in code) run in the workspace test leg.
# The xt-stat matrix with every session and its sampler crossing a
# save/restore frame each 777 instructions must render a byte-identical
# BENCH_perf.json, in the profile the report is generated in.
cargo test -q --release --offline -p xt-perf snapshotted_matrix_matches_uninterrupted

leg "xt-hostbench self-test (benchmark/README.md)"
# The host-speed benchmark is a workspace of its own, so nothing above
# builds it. Its unit tests cover the estimators and the result
# contract; --smoke runs shrunken jobs of all four workloads and exits
# non-zero on a wrong exit code, instruction count or digest, so a
# change that breaks what BENCHMARK.json measures fails here, not in a
# later measurement.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

leg "scripts/profile.sh parses"
# The SIGPROF profiler (EXPERIMENTS.md, "Host speed, PR 22") is a
# measuring tool, not a gate: only its syntax is checked here.
bash -n scripts/profile.sh

leg "hermetic dependency check"
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

leg "fixtures untouched"
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

leg "lines of code (informational)"
# Non-test lines per crate, raw and rustfmt-formatted: the figure a
# change that deletes code quotes. It gates nothing.
bash scripts/loc.sh || true

leg "wall clock per leg"
printf '%s' "$timings"
echo "== ci.sh: all gates green in $SECONDS s =="
