//! The `xt-report` pipeline-observability report.
//!
//! Runs the paper's observability workloads — STREAM with and without
//! the §V-C prefetcher, a dependency-chain microbench, and a branchy
//! (mispredict-heavy) microbench — on both timing models, and renders
//! the per-cause stall breakdown from [`xt_core::StallCause`] as
//! `BENCH_pipeline.json` (hand-rolled JSON, hermetic-build policy) plus
//! a Markdown report with paper-style tables.
//!
//! Everything here is deterministic: workload generation uses only the
//! `xt_harness::Rng`-seeded generators, the simulators are
//! cycle-reproducible, and the emitters carry no timestamps — two runs
//! produce byte-identical artifacts (asserted in the tests and by the
//! `xt-report --smoke` CI gate).

use crate::multicore::MulticoreSection;
use xt_asm::Program;
use xt_core::session::CoreModel;
use xt_core::{
    CoreConfig, InOrderCore, OooCore, OooSession, RunReport, Session, StallCause, TraceBuffer,
};
use xt_mem::{MemConfig, PrefetchConfig};
use xt_perf::json::json_f64;
pub use xt_perf::stat::{branchy, depchain};
use xt_perf::stat::mem_cfg;
use xt_workloads::stream::{stream, STREAM_ELEMS};

/// Dynamic-instruction budget per report run.
const MAX_INSTS: u64 = 500_000_000;

/// One (workload, machine) cell of the report.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload id (stable, used as the JSON key).
    pub workload: &'static str,
    /// One-line description for the Markdown report.
    pub what: &'static str,
    /// Machine name (from [`CoreConfig::name`]).
    pub machine: &'static str,
    /// The full run report (counters + memory stats).
    pub report: RunReport,
}

/// Workload blurbs for the Markdown report.
const WHAT_STREAM_OFF: &str =
    "STREAM copy/scale/add/triad (Fig. 21), hardware prefetch disabled — every array \
     access pays the memory latency; DCacheMiss should dominate the stall breakdown.";
const WHAT_STREAM_ON: &str =
    "Same STREAM pass with the §V-C multi-stream prefetcher enabled — the prefetch-hit \
     counter and the shrunken DCacheMiss share are the paper's Fig. 21 story.";
const WHAT_DEPCHAIN: &str =
    "A loop body of 16 serially dependent ALU ops: IPC pins near 1 regardless of width, \
     and the 48-entry issue queue fills behind the chain (IqFull attribution; the \
     192-entry ROB never backs up because dispatch is IQ-limited first).";
const WHAT_BRANCHY: &str =
    "An LCG-parity data-dependent branch per iteration (essentially unpredictable): \
     mispredict flushes dominate (MispredictFlush attribution, §III-A penalty).";

/// Runs `prog` on core model `C`. With `snapshot_every`, the run is
/// interrupted by a save/restore cycle every that many retired
/// instructions: each snapshot is restored into a *fresh* session which
/// then carries the run forward. The report must be bit-identical to an
/// uninterrupted run (docs/SNAPSHOT.md); `xt-report --snapshot-every`
/// asserts exactly that.
fn run_cell<C: CoreModel>(
    prog: &Program,
    cfg: &CoreConfig,
    mem_cfg: MemConfig,
    snapshot_every: Option<u64>,
) -> RunReport {
    let fresh = || Session::<C>::with_mem(prog, cfg, mem_cfg, MAX_INSTS);
    let mut s = fresh();
    let Some(every) = snapshot_every.map(|n| n.max(1)) else {
        return s.run_to_end();
    };
    while s.run_insts(every) == every {
        let snap = s.save();
        s = fresh();
        s.restore(&snap)
            .expect("snapshot restores into an identically configured session");
    }
    s.finish_report()
}

/// Runs the full workload × machine matrix. `smoke` shrinks every
/// workload so the whole matrix finishes in seconds (the CI gate).
pub fn run_all(smoke: bool) -> Vec<WorkloadResult> {
    run_all_with(smoke, None)
}

/// [`run_all`], optionally routed through a save/restore cycle every
/// `snapshot_every` retired instructions (see `run_cell`); the
/// output must be bit-identical either way (docs/SNAPSHOT.md).
pub fn run_all_with(smoke: bool, snapshot_every: Option<u64>) -> Vec<WorkloadResult> {
    let stream_elems = if smoke { 2048 } else { STREAM_ELEMS };
    let depchain_iters = if smoke { 200 } else { 5000 };
    let branchy_iters = if smoke { 500 } else { 5000 };

    let xt910 = CoreConfig::xt910();
    let u74 = CoreConfig::u74_like();
    let stream_k = stream(stream_elems);
    let dep = depchain(depchain_iters);
    let brn = branchy(branchy_iters);

    let cell = |workload, what, report: RunReport| WorkloadResult {
        workload,
        what,
        machine: report.machine,
        report,
    };
    let run_o = |prog, cfg, mem| run_cell::<OooCore>(prog, cfg, mem, snapshot_every);
    let run_i = |prog, cfg, mem| run_cell::<InOrderCore>(prog, cfg, mem, snapshot_every);

    vec![
        cell(
            "stream_pf_off",
            WHAT_STREAM_OFF,
            run_o(&stream_k.program, &xt910, mem_cfg(PrefetchConfig::off())),
        ),
        cell(
            "stream_pf_off",
            WHAT_STREAM_OFF,
            run_i(&stream_k.program, &u74, mem_cfg(PrefetchConfig::off())),
        ),
        cell(
            "stream_pf_on",
            WHAT_STREAM_ON,
            run_o(
                &stream_k.program,
                &xt910,
                mem_cfg(PrefetchConfig::all_large()),
            ),
        ),
        cell(
            "stream_pf_on",
            WHAT_STREAM_ON,
            run_i(
                &stream_k.program,
                &u74,
                mem_cfg(PrefetchConfig::all_large()),
            ),
        ),
        cell("depchain", WHAT_DEPCHAIN, run_o(&dep, &xt910, xt910.mem)),
        cell("depchain", WHAT_DEPCHAIN, run_i(&dep, &u74, u74.mem)),
        cell("branchy", WHAT_BRANCHY, run_o(&brn, &xt910, xt910.mem)),
        cell("branchy", WHAT_BRANCHY, run_i(&brn, &u74, u74.mem)),
    ]
}

/// Renders the multicore section as a JSON fragment (the `"multicore"`
/// value). Cells are deterministic; `host` is `null` whenever the
/// wall-clock speed was not measured (smoke mode).
fn render_multicore_json(mc: &MulticoreSection) -> String {
    let mut s = String::new();
    s.push_str("  \"multicore\": {\n");
    s.push_str("    \"cells\": [\n");
    for (i, c) in mc.cells.iter().enumerate() {
        let comma = if i + 1 < mc.cells.len() { "," } else { "" };
        s.push_str(&format!(
            "      {{ \"workload\": \"{}\", \"cores\": {}, \"makespan\": {}, \
             \"instructions\": {}, \"ipc\": {}, \"snoops_sent\": {}, \
             \"c2c_transfers\": {} }}{}\n",
            c.workload,
            c.cores,
            c.makespan,
            c.instructions,
            json_f64(c.ipc),
            c.snoops_sent,
            c.c2c_transfers,
            comma
        ));
    }
    s.push_str("    ],\n");
    match &mc.host {
        Some(h) => s.push_str(&format!(
            "    \"host\": {{ \"mips_1_thread\": {}, \"mips_4_threads\": {}, \
             \"speedup\": {}, \"emu_mips_fastpath\": {}, \
             \"emu_mips_slowpath\": {}, \"emu_speedup\": {} }}\n",
            json_f64(h.mips_1_thread),
            json_f64(h.mips_4_threads),
            json_f64(h.speedup),
            json_f64(h.emu_mips_fastpath),
            json_f64(h.emu_mips_slowpath),
            json_f64(h.emu_speedup)
        )),
        None => s.push_str("    \"host\": null\n"),
    }
    s.push_str("  }\n");
    s
}

/// Renders the result matrix as the `BENCH_pipeline.json` document.
pub fn render_json(results: &[WorkloadResult], multicore: &MulticoreSection, smoke: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"xt-report/v2\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let p = &r.report.perf;
        s.push_str("    {\n");
        s.push_str(&format!("      \"workload\": \"{}\",\n", r.workload));
        s.push_str(&format!("      \"machine\": \"{}\",\n", r.machine));
        s.push_str(&format!("      \"cycles\": {},\n", p.cycles));
        s.push_str(&format!("      \"instructions\": {},\n", p.instructions));
        s.push_str(&format!("      \"ipc\": {},\n", json_f64(p.ipc())));
        s.push_str(&format!(
            "      \"branch_accuracy\": {},\n",
            json_f64(p.branch_accuracy())
        ));
        s.push_str(&format!("      \"prefetch_hits\": {},\n", p.prefetch_hits));
        s.push_str("      \"stalls\": {\n");
        for (j, cause) in StallCause::ALL.iter().enumerate() {
            let comma = if j + 1 < StallCause::ALL.len() { "," } else { "" };
            s.push_str(&format!(
                "        \"{}\": {}{}\n",
                cause.name(),
                p.stall(*cause),
                comma
            ));
        }
        s.push_str("      },\n");
        s.push_str(&format!(
            "      \"unattributed\": {}\n",
            p.cycles - p.attributed_stall_cycles()
        ));
        let comma = if i + 1 < results.len() { "," } else { "" };
        s.push_str(&format!("    }}{comma}\n"));
    }
    s.push_str("  ],\n");
    s.push_str(&render_multicore_json(multicore));
    s.push_str("}\n");
    s
}

/// Renders the result matrix as the Markdown report.
pub fn render_markdown(
    results: &[WorkloadResult],
    multicore: &MulticoreSection,
    smoke: bool,
) -> String {
    let mut s = String::new();
    s.push_str("# Pipeline observability report\n\n");
    s.push_str(if smoke {
        "Smoke-sized run (`xt-report --smoke`): shapes are meaningful, magnitudes are not.\n\n"
    } else {
        "Generated by `cargo run --release -p xt-bench --bin xt-report`.\n\n"
    });
    s.push_str("## Summary\n\n");
    s.push_str("| workload | machine | cycles | insts | IPC | br-acc | pf-hits |\n");
    s.push_str("|---|---|---:|---:|---:|---:|---:|\n");
    for r in results {
        let p = &r.report.perf;
        s.push_str(&format!(
            "| {} | {} | {} | {} | {:.3} | {:.1}% | {} |\n",
            r.workload,
            r.machine,
            p.cycles,
            p.instructions,
            p.ipc(),
            p.branch_accuracy() * 100.0,
            p.prefetch_hits,
        ));
    }
    s.push_str("\n## Stall attribution (frontier-based; sums ≤ cycles)\n\n");
    s.push_str("| workload | machine |");
    for cause in StallCause::ALL {
        s.push_str(&format!(" {} |", cause.name()));
    }
    s.push_str(" unattributed |\n|---|---|");
    for _ in 0..StallCause::ALL.len() + 1 {
        s.push_str("---:|");
    }
    s.push('\n');
    for r in results {
        let p = &r.report.perf;
        s.push_str(&format!("| {} | {} |", r.workload, r.machine));
        for cause in StallCause::ALL {
            s.push_str(&format!(" {} |", p.stall(cause)));
        }
        s.push_str(&format!(
            " {} |\n",
            p.cycles - p.attributed_stall_cycles()
        ));
    }
    s.push_str("\n### Workloads\n\n");
    let mut seen: Vec<&str> = Vec::new();
    for r in results {
        if seen.contains(&r.workload) {
            continue;
        }
        seen.push(r.workload);
        s.push_str(&format!("- **{}** — {}\n", r.workload, r.what));
    }
    s.push_str("\n## Multicore (epoch-barriered cluster engine, docs/CLUSTER.md)\n\n");
    s.push_str("| workload | cores | makespan | insts | IPC | snoops | c2c |\n");
    s.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
    for c in &multicore.cells {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {:.3} | {} | {} |\n",
            c.workload, c.cores, c.makespan, c.instructions, c.ipc, c.snoops_sent, c.c2c_transfers,
        ));
    }
    match &multicore.host {
        Some(h) => s.push_str(&format!(
            "\nHost simulation speed (4 simulated cores): {:.2} MIPS at 1 worker \
             thread, {:.2} MIPS at 4 — **{:.2}x** parallel speedup with \
             bit-identical results.\n\nFunctional-emulator speed (1 core): \
             {:.2} MIPS with the decoded-block cache (docs/FASTPATH.md), \
             {:.2} MIPS decoding per step — **{:.2}x**.\n",
            h.mips_1_thread,
            h.mips_4_threads,
            h.speedup,
            h.emu_mips_fastpath,
            h.emu_mips_slowpath,
            h.emu_speedup
        )),
        None => s.push_str("\nHost simulation speed: not measured in smoke mode.\n"),
    }
    s
}

/// Runs the dependency-chain microbench traced on the XT-910 model and
/// returns the trace buffer (for `xt-report --trace`).
pub fn traced_depchain(iters: i64) -> TraceBuffer {
    OooSession::new(&depchain(iters), &CoreConfig::xt910(), MAX_INSTS)
        .run_traced()
        .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_is_deterministic_and_conserved() {
        let a = run_all(true);
        let b = run_all(true);
        let mca = crate::multicore::report_section(true);
        let mcb = crate::multicore::report_section(true);
        assert!(!a.is_empty());
        assert_eq!(render_json(&a, &mca, true), render_json(&b, &mcb, true));
        assert_eq!(
            render_markdown(&a, &mca, true),
            render_markdown(&b, &mcb, true)
        );
        for r in &a {
            assert!(r.report.perf.stalls_conserved(), "{}", r.workload);
        }
    }

    #[test]
    fn snapshotted_matrix_matches_uninterrupted() {
        let plain = run_all(true);
        let snapped = run_all_with(true, Some(777));
        let mc = crate::multicore::report_section(true);
        assert_eq!(
            render_json(&plain, &mc, true),
            render_json(&snapped, &mc, true),
            "save/restore every 777 insts must not change BENCH_pipeline.json"
        );
    }

    #[test]
    fn prefetch_on_beats_off_on_stream() {
        let rs = run_all(true);
        let cyc = |w: &str, m: &str| {
            rs.iter()
                .find(|r| r.workload == w && r.machine == m)
                .map(|r| r.report.perf.cycles)
                .expect("cell exists")
        };
        assert!(cyc("stream_pf_on", "XT-910") < cyc("stream_pf_off", "XT-910"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let rs = run_all(true);
        let mc = crate::multicore::report_section(true);
        let j = render_json(&rs, &mc, true);
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
        assert!(j.contains("\"schema\": \"xt-report/v2\""));
        assert!(j.contains("\"multicore\""));
        assert!(j.contains("\"producer_consumer\""));
        assert!(j.contains("\"host\": null"), "smoke skips wall clock");
        for cause in StallCause::ALL {
            assert!(j.contains(cause.name()));
        }
    }
}
