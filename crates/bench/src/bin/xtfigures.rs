//! `xt-figures` — the vector-pipeline figure artifact and its gate.
//!
//! Subcommands (mirrors the `xt-stat` CLI surface):
//!
//! * `xt-figures [--smoke]` — run the `rv64gc|rv64gcv × base|tuned`
//!   vecbench grid plus Figs. 18–20 on the XT-910 timing model and
//!   write `BENCH_figures.json` (schema `xt-figures/v1`) to the current
//!   directory. The document is simulated-cycle arithmetic only, so it
//!   is byte-identical across runs; `--smoke` merely labels the
//!   artifact as the CI-gate variant.
//! * `xt-figures diff <baseline.json> <candidate.json> [--tolerance T]`
//!   and `xt-figures selftest <baseline.json> [--tolerance T]` — the
//!   artifact gate, [`xt_perf::gate`] (which documents what is compared
//!   and the exit codes), told about this document by
//!   [`artifact::ARTIFACT`].

use xt_bench::artifact;
use xt_perf::gate;

fn cmd_generate(smoke: bool) {
    let (grid, js) = artifact::generate(smoke);
    std::fs::write("BENCH_figures.json", js).expect("write BENCH_figures.json");
    println!("wrote BENCH_figures.json ({} grid cells)", grid.len());
    for (kernel, ratio) in artifact::speedups(&grid) {
        println!("  {kernel:<12} rv64gcv/tuned vs rv64gc/base: {ratio:.2}x elements/cycle");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gate::main(&artifact::ARTIFACT, &args, cmd_generate));
}
