//! `xt-stat` — performance dashboard and benchmark regression gate.
//!
//! Subcommands:
//!
//! * `xt-stat [--smoke]` — run the sampled workload matrix and write,
//!   to the current directory, `BENCH_perf.json` (totals + top-down
//!   buckets + interval time-series + memory block — miss-class mix
//!   and prefetch scorecard — per (workload, machine), plus the
//!   cluster section with per-cell snoop matrices; schema `xt-stat/v2`)
//!   and `REPORT_perf.md` (the sparkline dashboard). `--smoke` shrinks
//!   every workload to CI-gate size; smoke output is
//!   byte-deterministic (the full run's `cluster.engine` block reports
//!   measured host time and is the one non-deterministic field).
//! * `xt-stat diff <baseline.json> <candidate.json> [--tolerance T]`
//!   and `xt-stat selftest <baseline.json> [--tolerance T]` — the
//!   artifact gate, [`xt_perf::gate`] (which documents what is compared
//!   and the exit codes), told about this document by
//!   [`stat::ARTIFACT`]: the `engine` block is host time and not
//!   compared; both sides must pass the memory conservation laws
//!   (`validate_memory`), and `selftest` forges a miss-class count and
//!   a snoop count that those laws must refuse.

use xt_perf::{gate, stat};

fn cmd_generate(smoke: bool) {
    let runs = stat::run_all(smoke);
    let cluster = stat::run_cluster(smoke);
    let js = stat::render_json(&runs, &cluster, smoke);
    let md = stat::render_markdown(&runs, &cluster, smoke);
    std::fs::write("BENCH_perf.json", &js).expect("write BENCH_perf.json");
    std::fs::write("REPORT_perf.md", &md).expect("write REPORT_perf.md");
    println!(
        "wrote BENCH_perf.json and REPORT_perf.md ({} runs + {} cluster cells)",
        runs.len(),
        cluster.cells.len()
    );
    for r in &runs {
        let td = r.series.aggregate_topdown();
        let sh = td.shares(r.report.perf.cycles);
        println!(
            "  {:<14} {:<7} ipc {:.3}  [fe {:.0}% bs {:.0}% core {:.0}% mem {:.0}% vec {:.0}% ret {:.0}%]  {} intervals",
            r.workload,
            r.machine,
            r.report.perf.ipc(),
            sh[0] * 100.0,
            sh[1] * 100.0,
            sh[2] * 100.0,
            sh[3] * 100.0,
            sh[4] * 100.0,
            sh[5] * 100.0,
            r.series.samples.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gate::main(&stat::ARTIFACT, &args, cmd_generate));
}
