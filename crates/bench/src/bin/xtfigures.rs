//! `xt-figures` — every paper number, as one gated artifact.
//!
//! Subcommands (mirrors the `xt-stat` CLI surface):
//!
//! * `xt-figures` — run the `rv64gc|rv64gcv × base|tuned` vecbench grid
//!   and every figure of [`artifact::FIGURES`] (Figs. 17–21, Table II,
//!   §X SPECInt and vector MACs, §I blockchain, §V-E ASID, the feature
//!   ablations, multi-core scaling and the snoop filter) on the timing
//!   models, write `BENCH_figures.json` (schema `xt-figures/v2`) to the
//!   current directory and print each figure beside the paper's values.
//!   The document is simulated-cycle arithmetic only, so it is
//!   byte-identical across runs. The shared command line also accepts
//!   `--smoke`, which changes nothing here.
//! * `xt-figures diff <baseline.json> <candidate.json> [--tolerance T]`
//!   and `xt-figures selftest <baseline.json> [--tolerance T]` — the
//!   artifact gate, [`xt_perf::gate`] (which documents what is compared
//!   and the exit codes), told about this document by
//!   [`artifact::ARTIFACT`].

use xt_bench::artifact;
use xt_perf::gate;

fn cmd_generate() {
    let (grid, figs) = (artifact::run_grid(), artifact::figures());
    let js = artifact::render_json(&grid, &figs);
    std::fs::write("BENCH_figures.json", js).expect("write BENCH_figures.json");
    println!(
        "wrote BENCH_figures.json ({} grid cells, {} figures)",
        grid.len(),
        figs.len()
    );
    for (kernel, ratio) in artifact::speedups(&grid) {
        println!("  {kernel:<12} rv64gcv/tuned vs rv64gc/base: {ratio:.2}x elements/cycle");
    }
    for (_, fig) in &figs {
        print!("\n{fig}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gate::main(&artifact::ARTIFACT, &args, |_smoke| {
        cmd_generate()
    }));
}
