//! The `xt-figures` machine-readable artifact (schema `xt-figures/v1`)
//! and its regression gate.
//!
//! `BENCH_figures.json` packages the vector-pipeline evaluation in one
//! deterministic document:
//!
//! * `grid` — the `rv64gc|rv64gcv × base|tuned` ablation: every
//!   [`xt_workloads::vecbench`] kernel compiled for all four cells of
//!   [`xt_compiler::CompileOpts::ablation`] and run on the XT-910
//!   out-of-order timing model, with cycles, retired instructions,
//!   vector-busy stall cycles, instruction IPC and *element* IPC
//!   (elements of result produced per cycle — the unit Figs. 18–20
//!   compare machines in, insensitive to how many scalar address-book
//!   instructions an ISA needs per element).
//! * `speedup` — per kernel, the `rv64gcv/tuned` over `rv64gc/base`
//!   element-IPC ratio (the headline vector-uplift series).
//! * `figures` — Figs. 18, 19 and 20 of the paper, serialized row by
//!   row with the paper's quoted value where the paper quotes one.
//!
//! Everything is simulated-cycle arithmetic — no host time, no
//! randomness outside the fixed-seed workload generators — so the
//! document is byte-identical across runs and machines, and CI diffs it
//! against `baselines/BENCH_figures_smoke.json` at tolerance **0**
//! (`xt-figures diff`, which is [`xt_perf::gate`] told about this
//! document by [`ARTIFACT`]; see docs/VECTOR.md §"The figures
//! artifact").

use crate::figures::{fig18, fig19, fig20, Figure};
use crate::run_on_xt910;
use xt_compiler::CompileOpts;
use xt_core::StallCause;
use xt_perf::gate::{expect_schema, Artifact};
use xt_trace::lanes::esc;
use xt_workloads::vecbench;

/// One cell of the ablation grid: a kernel under one (ISA, tuning)
/// combination, measured on the XT-910 timing model.
#[derive(Clone, Debug)]
pub struct GridRun {
    /// Kernel name (`vec_memcpy`, `vec_saxpy`, `vec_dot`, `vec_matmul`).
    pub kernel: &'static str,
    /// ISA target: `rv64gc` or `rv64gcv`.
    pub isa: &'static str,
    /// Compiler tuning: `base` or `tuned`.
    pub tuning: &'static str,
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Result elements the kernel produces (its `work`).
    pub elems: u64,
    /// Cycles attributed to [`StallCause::VecBusy`].
    pub vec_busy: u64,
}

impl GridRun {
    /// Retired instructions per cycle.
    pub fn inst_ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Result elements per cycle — the cross-ISA comparison unit.
    pub fn elem_ipc(&self) -> f64 {
        self.elems as f64 / self.cycles.max(1) as f64
    }
}

/// Runs the full 4-kernel × 4-cell grid on the XT-910 model. Every run
/// self-checks (wrong guest results abort rather than skewing figures).
pub fn run_grid() -> Vec<GridRun> {
    let mut out = Vec::new();
    for &(vector, isa) in &[(false, "rv64gc"), (true, "rv64gcv")] {
        for &(tuned, tuning) in &[(false, "base"), (true, "tuned")] {
            let opts = CompileOpts::ablation(vector, tuned);
            for k in vecbench::all(&opts) {
                let r = run_on_xt910(&k);
                out.push(GridRun {
                    kernel: k.name,
                    isa,
                    tuning,
                    cycles: r.perf.cycles,
                    instructions: r.perf.instructions,
                    elems: k.work,
                    vec_busy: r.perf.stall(StallCause::VecBusy),
                });
            }
        }
    }
    out
}

/// Per-kernel `rv64gcv/tuned ÷ rv64gc/base` element-IPC ratios.
pub fn speedups(grid: &[GridRun]) -> Vec<(&'static str, f64)> {
    let cell = |kernel: &str, isa: &str, tuning: &str| {
        grid.iter()
            .find(|g| g.kernel == kernel && g.isa == isa && g.tuning == tuning)
            .expect("complete grid")
    };
    let mut kernels: Vec<&'static str> = Vec::new();
    for g in grid {
        if !kernels.contains(&g.kernel) {
            kernels.push(g.kernel);
        }
    }
    kernels
        .into_iter()
        .map(|k| {
            let best = cell(k, "rv64gcv", "tuned").elem_ipc();
            let base = cell(k, "rv64gc", "base").elem_ipc();
            (k, best / base)
        })
        .collect()
}

fn figure_json(name: &str, f: &Figure, out: &mut String) {
    out.push_str(&format!(
        "    {{\"name\": \"{}\", \"title\": \"{}\", \"unit\": \"{}\", \"rows\": [\n",
        esc(name),
        esc(&f.title),
        esc(&f.unit)
    ));
    let rows: Vec<String> = f
        .rows
        .iter()
        .map(|r| {
            let paper = match r.paper {
                Some(p) => format!("{p:.6}"),
                None => "null".into(),
            };
            format!(
                "      {{\"label\": \"{}\", \"value\": {:.6}, \"paper\": {}}}",
                esc(&r.label),
                r.value,
                paper
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n    ]}");
}

/// Renders the full `xt-figures/v1` document. Deterministic: fixed key
/// order, fixed float precision, no host-derived values.
pub fn render_json(grid: &[GridRun], figs: &[(&str, Figure)], smoke: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"xt-figures/v1\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str("  \"vlen\": 128,\n");
    s.push_str("  \"grid\": [\n");
    let cells: Vec<String> = grid
        .iter()
        .map(|g| {
            format!(
                "    {{\"kernel\": \"{}\", \"isa\": \"{}\", \"tuning\": \"{}\", \
                 \"cycles\": {}, \"instructions\": {}, \"elems\": {}, \
                 \"vec_busy_cycles\": {}, \"inst_ipc\": {:.6}, \"elem_ipc\": {:.6}}}",
                g.kernel,
                g.isa,
                g.tuning,
                g.cycles,
                g.instructions,
                g.elems,
                g.vec_busy,
                g.inst_ipc(),
                g.elem_ipc()
            )
        })
        .collect();
    s.push_str(&cells.join(",\n"));
    s.push_str("\n  ],\n  \"speedup\": [\n");
    let sp: Vec<String> = speedups(grid)
        .iter()
        .map(|(k, r)| format!("    {{\"kernel\": \"{k}\", \"elem_ipc_ratio\": {r:.6}}}"))
        .collect();
    s.push_str(&sp.join(",\n"));
    s.push_str("\n  ],\n  \"figures\": [\n");
    for (i, (name, f)) in figs.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        figure_json(name, f, &mut s);
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Runs everything and renders the document (what `xt-figures`
/// writes), returning the grid it was rendered from as well.
pub fn generate(smoke: bool) -> (Vec<GridRun>, String) {
    let grid = run_grid();
    let figs = [("fig18", fig18()), ("fig19", fig19()), ("fig20", fig20())];
    let js = render_json(&grid, &figs, smoke);
    (grid, js)
}

/// `BENCH_figures.json` as [`xt_perf::gate`] sees it: no host time
/// anywhere, and no internal law to forge against.
pub const ARTIFACT: Artifact = Artifact {
    tool: "xt-figures",
    validate: |doc| expect_schema(doc, "xt-figures/v1"),
    host_keys: &[],
    forgeries: &[],
};

#[cfg(test)]
mod tests {
    use super::*;
    use xt_perf::gate::{diff, selftest};
    use xt_perf::json::{parse, Value};

    #[test]
    fn artifact_is_deterministic_gated_and_shows_vector_uplift() {
        let (grid, js) = generate(true);
        assert_eq!(grid.len(), 16, "4 kernels x 4 cells");

        // headline acceptance: at least one Fig. 18-class kernel shows
        // >= 2x element IPC for rv64gcv/tuned over rv64gc/base
        let sp = speedups(&grid);
        let best = sp.iter().cloned().fold(("", 0.0f64), |a, b| {
            if b.1 > a.1 { b } else { a }
        });
        assert!(
            best.1 >= 2.0,
            "vector uplift below 2x: best {} at {:.2}x ({sp:?})",
            best.0,
            best.1
        );

        // vector cells actually exercise the vector pipe
        assert!(grid
            .iter()
            .any(|g| g.isa == "rv64gcv" && g.vec_busy > 0));

        // byte determinism of a second full generation
        let (_, js2) = generate(true);
        assert_eq!(js, js2, "artifact must be byte-identical across runs");

        // parses, self-diffs clean at tolerance 0, and the gate's
        // selftest flags injected regressions
        let d = parse(&js).expect("own JSON parses");
        assert_eq!(
            d.get("schema").and_then(Value::as_str),
            Some("xt-figures/v1")
        );
        let out = diff(&ARTIFACT, &d, &d, 0.0).expect("comparable");
        assert!(out.issues.is_empty());
        assert!(out.compared > 0);
        selftest(&ARTIFACT, &d, 0.0).expect("gate selftest at tolerance 0");
        selftest(&ARTIFACT, &d, 0.05).expect("gate selftest with a band");
        let foreign = parse(&js.replace("xt-figures/v1", "xt-stat/v3")).unwrap();
        let err = diff(&ARTIFACT, &d, &foreign, 0.0).expect_err("another tool's document");
        assert!(err.starts_with("candidate: schema"), "{err}");
    }
}
