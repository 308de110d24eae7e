//! The `xt-figures` machine-readable artifact (schema `xt-figures/v2`)
//! and its regression gate: the one place the paper's numbers come from.
//!
//! `BENCH_figures.json` packages every reproduced number in one
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
//! * `figures` — every [`Figure`] the crate builds ([`FIGURES`]), row by
//!   row with the paper's quoted value where the paper quotes one, and
//!   the figure's `err` against the paper ([`Figure::err`]; `null` when
//!   no row quotes the paper). [`ARTIFACT`]'s `validate` recomputes each
//!   `err` from the written rows, so a forged error is refused.
//!
//! Everything is simulated-cycle arithmetic — no host time, no
//! randomness outside the fixed-seed workload generators — so the
//! document is byte-identical across runs and machines, and CI diffs it
//! against `baselines/BENCH_figures_smoke.json` at tolerance **0**
//! (`xt-figures diff`, which is [`xt_perf::gate`] told about this
//! document by [`ARTIFACT`]; see docs/VECTOR.md §"The figures
//! artifact"). EXPERIMENTS.md's paper-vs-measured tables quote the
//! committed baseline, and a test holds them to it.

use crate::figures::*;
use crate::{ablations, multicore, run_on_xt910};
use xt_compiler::CompileOpts;
use xt_core::StallCause;
use xt_perf::gate::{expect_schema, Artifact};
use xt_perf::json::Value;
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

/// The schema tag [`render_json`] writes and [`ARTIFACT`] expects.
const SCHEMA: &str = "xt-figures/v2";

/// A function that runs the simulations behind one figure.
pub type Build = fn() -> Figure;

/// Every figure the crate builds, by name, in document order: Figs.
/// 18–20 first, where schema v1 had them, then the rest.
pub const FIGURES: [(&str, Build); 13] = [
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20", fig20),
    ("table2", table2),
    ("fig17", fig17),
    ("fig21", fig21),
    ("specint", specint),
    ("vector_mac", vector_mac),
    ("blockchain", blockchain_fig),
    ("asid", asid_flush),
    ("ablations", ablations::all),
    ("multicore", multicore::scaling),
    ("snoop", multicore::snoop_filter),
];

fn figure_json(name: &str, f: &Figure, out: &mut String) {
    let err = match f.err() {
        Some(e) => format!("{e:.6}"),
        None => "null".into(),
    };
    out.push_str(&format!(
        "    {{\"name\": \"{}\", \"title\": \"{}\", \"unit\": \"{}\", \"err\": {err}, \"rows\": [\n",
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

/// Renders the full `xt-figures/v2` document. Deterministic: fixed key
/// order, fixed float precision, no host-derived values.
pub fn render_json(grid: &[GridRun], figs: &[(&str, Figure)]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{{\n  \"schema\": \"{SCHEMA}\",\n"));
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

/// Builds every figure of [`FIGURES`], each beside its name. The
/// figures share no state, so each is built on a thread of its own.
pub fn figures() -> Vec<(&'static str, Figure)> {
    std::thread::scope(|s| {
        let runs: Vec<_> = FIGURES
            .iter()
            .map(|&(name, build)| (name, s.spawn(build)))
            .collect();
        runs.into_iter()
            .map(|(name, run)| (name, run.join().expect("a figure's run panicked")))
            .collect()
    })
}

/// Reads one `figures[]` object back as [`figure_json`] wrote it.
fn parse_figure(v: &Value) -> Result<Figure, String> {
    let text = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or(format!("no \"{k}\""))
    };
    let rows = v.get("rows").and_then(Value::as_arr).ok_or("no \"rows\"")?;
    let rows = rows.iter().map(|r| {
        let value = r
            .get("value")
            .and_then(Value::as_num)
            .ok_or("a row without a value")?;
        Ok(Row::new(
            text(r, "label")?,
            value,
            r.get("paper").and_then(Value::as_num),
        ))
    });
    Ok(Figure {
        title: text(v, "title")?,
        unit: text(v, "unit")?,
        rows: rows.collect::<Result<_, String>>()?,
    })
}

/// The schema tag, and the law that each figure's `err` is the one its
/// written rows give (to within the rows' six printed decimals).
fn validate(doc: &Value) -> Result<(), String> {
    expect_schema(doc, SCHEMA)?;
    for v in doc
        .get("figures")
        .and_then(Value::as_arr)
        .ok_or("no figures")?
    {
        let name = v.get("name").and_then(Value::as_str).unwrap_or("?");
        let want = parse_figure(v)
            .map_err(|e| format!("figure {name}: {e}"))?
            .err();
        match (want, v.get("err")) {
            (None, Some(Value::Null)) => {}
            (Some(w), Some(&Value::Num(got))) if (got - w).abs() <= 1e-5 => {}
            (_, got) => {
                return Err(format!(
                    "figure {name}: err {got:?}, but its rows give {want:?}"
                ))
            }
        }
    }
    Ok(())
}

/// `BENCH_figures.json` as [`xt_perf::gate`] sees it: no host time
/// anywhere; a figure's `err` bumped on its own no longer matches its rows,
/// which `validate` refuses.
pub const ARTIFACT: Artifact = Artifact {
    tool: "xt-figures",
    validate,
    host_keys: &[],
    forgeries: &["err"],
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xt_perf::gate::{diff, map_key, selftest};
    use xt_perf::json::parse;

    /// The committed artifact, which the first test below proves equal
    /// to a fresh generation.
    const BASELINE: &str = include_str!("../../../baselines/BENCH_figures_smoke.json");

    /// Figure `name` as committed, so a test of a figure's shape reads it
    /// instead of simulating it again.
    pub(crate) fn committed(name: &str) -> Figure {
        let doc = parse(BASELINE).expect("baseline parses");
        let figs = doc.get("figures").and_then(Value::as_arr).expect("figures");
        let fig = figs
            .iter()
            .find(|f| f.get("name").and_then(Value::as_str) == Some(name));
        parse_figure(fig.unwrap_or_else(|| panic!("no {name} in the baseline"))).unwrap()
    }

    #[test]
    fn artifact_is_deterministic_gated_and_shows_vector_uplift() {
        let (grid, figs) = (run_grid(), figures());
        let js = render_json(&grid, &figs);
        assert_eq!(grid.len(), 16, "4 kernels x 4 cells");

        // headline acceptance: at least one Fig. 18-class kernel shows
        // >= 2x element IPC for rv64gcv/tuned over rv64gc/base
        let sp = speedups(&grid);
        let best = sp
            .iter()
            .cloned()
            .fold(("", 0.0f64), |a, b| if b.1 > a.1 { b } else { a });
        assert!(
            best.1 >= 2.0,
            "vector uplift below 2x: best {} at {:.2}x ({sp:?})",
            best.0,
            best.1
        );

        // vector cells actually exercise the vector pipe
        assert!(grid.iter().any(|g| g.isa == "rv64gcv" && g.vec_busy > 0));

        // one generation equals the committed baseline at tolerance 0,
        // which also makes it the same from run to run
        let d = parse(&js).expect("own JSON parses");
        let base = parse(BASELINE).expect("baseline parses");
        let out = diff(&ARTIFACT, &base, &d, 0.0).expect("comparable");
        assert_eq!(
            out.issues,
            Vec::<String>::new(),
            "a fresh generation must equal the committed baseline"
        );
        let names: Vec<&str> = figs.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names[..3],
            ["fig18", "fig19", "fig20"],
            "v1 array positions kept"
        );
        // Table II's model is its calibration: the paper's values to 1e-4
        assert!(committed("table2").err().unwrap() < 1e-4);

        // the gate's selftest flags injected regressions and a forged err,
        // also where a figure quotes no paper value
        selftest(&ARTIFACT, &d, 0.0).expect("gate selftest at tolerance 0");
        selftest(&ARTIFACT, &d, 0.05).expect("gate selftest with a band");
        let unquoted = js.replacen("\"err\": null", "\"err\": 0.000000", 1);
        assert!(diff(&ARTIFACT, &d, &parse(&unquoted).unwrap(), 0.5).is_err());
        let forged = map_key(&d, "err", &|e| e + 1e-4);
        let err = diff(&ARTIFACT, &d, &forged, 0.5).expect_err("forged err");
        assert!(err.starts_with("candidate: figure fig18: err"), "{err}");
        let foreign = parse(&js.replace(SCHEMA, "xt-stat/v3")).unwrap();
        let err = diff(&ARTIFACT, &d, &foreign, 0.0).expect_err("another tool's document");
        assert!(err.starts_with("candidate: schema"), "{err}");
    }

    /// The percentage in parentheses in `cell`, as printed, with an
    /// ASCII sign: `"4.89× (−0.1%)"` gives `"-0.1"`.
    fn quoted_percent(cell: &str) -> Option<String> {
        let inner = cell.split_once('(')?.1.split_once("%)")?.0;
        Some(inner.replace('−', "-").trim_start_matches('+').to_string())
    }

    /// EXPERIMENTS.md's paper-vs-measured tables quote the committed
    /// artifact. In the table right after a `<!-- xt-figures: NAME -->`
    /// line, a row whose first cell is a row label of figure NAME must
    /// print that row's value as the first number of its last cell,
    /// rounded to as many decimals as it prints; and every row that
    /// quotes the paper is in such a table. In the fig21 table, a
    /// percentage in parentheses in that cell is the row against row
    /// (c), rounded as printed.
    #[test]
    fn experiments_md_quotes_the_artifact() {
        let md = include_str!("../../../EXPERIMENTS.md");
        let lines: Vec<&str> = md.lines().collect();
        let mut quoted = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let Some(name) = line
                .strip_prefix("<!-- xt-figures: ")
                .and_then(|l| l.strip_suffix(" -->"))
            else {
                continue;
            };
            let fig = committed(name);
            let before = quoted.len();
            for row in lines[i + 1..].iter().take_while(|l| l.starts_with('|')) {
                let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
                let Some(r) = fig.rows.iter().find(|r| r.label == cells[0]) else {
                    continue;
                };
                let last = cells[cells.len() - 1];
                let num: String = last
                    .chars()
                    .skip_while(|c| !c.is_ascii_digit())
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                let num = num.trim_end_matches('.');
                let decimals = num.split_once('.').map_or(0, |(_, d)| d.len());
                let want = format!("{:.*}", decimals, r.value);
                assert_eq!(
                    num, want,
                    "EXPERIMENTS.md, {name} row {:?}: {last:?}",
                    r.label
                );
                if let Some(pct) = quoted_percent(last).filter(|_| name == "fig21") {
                    let c = fig.rows.iter().find(|r| r.label.starts_with("c)"));
                    let c = c.expect("fig21 has a row (c)").value;
                    let decimals = pct.split_once('.').map_or(0, |(_, d)| d.len());
                    let want = format!("{:.*}", decimals, (r.value / c - 1.0) * 100.0);
                    // a rounded zero prints without a sign
                    let want = match want.strip_prefix('-') {
                        Some(z) if z.chars().all(|c| c == '0' || c == '.') => z.to_string(),
                        _ => want,
                    };
                    assert_eq!(
                        pct, want,
                        "EXPERIMENTS.md, fig21 row {:?} against row (c): {last:?}",
                        r.label
                    );
                }
                quoted.push((name, r.label.clone()));
            }
            assert!(
                quoted.len() > before,
                "the {name} table quotes none of its rows"
            );
        }
        for (name, _) in FIGURES {
            for r in committed(name).rows.iter().filter(|r| r.paper.is_some()) {
                assert!(
                    quoted.contains(&(name, r.label.clone())),
                    "EXPERIMENTS.md has no marked {name} table quoting {:?}",
                    r.label
                );
            }
        }
    }
}
