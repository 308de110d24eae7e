//! The `xt-stat` dashboard and regression gate.
//!
//! `run_all` runs the observability workload matrix with interval
//! sampling, `render_json` emits the `BENCH_perf.json` artifact
//! (schema `xt-stat/v2`: v1 plus a per-run `memory` block — miss-class
//! mix, prefetch scorecard — and per-core-pair snoop matrices on the
//! cluster cells), `render_markdown` the sparkline dashboard, and
//! [`ARTIFACT`] describes the document to [`crate::gate`], whose
//! `diff` / `selftest` are the CI gate that compares a candidate run
//! against a committed baseline. Part of that description is the
//! memory block's internal conservation laws ([`validate_memory`]), so
//! a fabricated count mismatch fails CI.
//!
//! Everything except the full-mode `engine` block (measured host time,
//! explicitly informational) is deterministic: same binary, same
//! flags → byte-identical artifacts. The smoke artifact sets
//! `"engine": null` and is therefore byte-reproducible end to end —
//! that is what `scripts/ci.sh` pins with `diff --tolerance 0`.

use crate::gate::{expect_schema, Artifact};
use crate::json::{json_f64, Value};
use crate::run_sampled;
use crate::sampler::TimeSeries;
use crate::topdown::TopDown;
use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, InOrderSession, OooSession, RunReport};
use xt_isa::reg::Gpr;
use xt_mem::{MemConfig, PrefetchConfig};
use xt_soc::ClusterSim;
use xt_workloads::stream::{stream, STREAM_ELEMS};

/// Dynamic-instruction budget per run.
const MAX_INSTS: u64 = 500_000_000;

/// Sampling interval (simulated cycles) for smoke / full runs.
pub fn sampling_interval(smoke: bool) -> u64 {
    if smoke {
        1024
    } else {
        8192
    }
}

/// One sampled (workload, machine) run.
#[derive(Clone, Debug)]
pub struct StatRun {
    /// Workload id (stable JSON key).
    pub workload: &'static str,
    /// Machine name.
    pub machine: &'static str,
    /// Final report.
    pub report: RunReport,
    /// Interval time-series.
    pub series: TimeSeries,
}

/// One cluster cell (multicore throughput under the epoch engine).
#[derive(Clone, Debug)]
pub struct ClusterCell {
    /// Workload id.
    pub workload: &'static str,
    /// Simulated cores.
    pub cores: usize,
    /// Slowest core's cycles.
    pub makespan: u64,
    /// Aggregate instructions.
    pub instructions: u64,
    /// Aggregate throughput.
    pub ipc: f64,
    /// Snoop probes sent.
    pub snoops_sent: u64,
    /// Coherence transitions (invalidations + downgrades + upgrades).
    pub coh_transitions: u64,
    /// Requester-major snoop matrix (`cores * cores` entries; sums to
    /// [`ClusterCell::snoops_sent`]).
    pub snoop_matrix: Vec<u64>,
}

/// Measured engine host time (full mode only; informational).
#[derive(Clone, Copy, Debug)]
pub struct EngineSection {
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Host ns in the serial barrier.
    pub serial_ns: u64,
    /// Host ns in the parallel slice phase.
    pub parallel_ns: u64,
    /// serial / (serial + parallel).
    pub serial_share: f64,
}

/// The cluster section of the report.
#[derive(Clone, Debug)]
pub struct ClusterSection {
    /// Deterministic cells.
    pub cells: Vec<ClusterCell>,
    /// Host-time block (`None` in smoke mode → `"engine": null`).
    pub engine: Option<EngineSection>,
}

/// Dependency-chain microbench: one long serial ALU chain per
/// iteration, so IPC pins near 1 and the issue queue fills behind it.
pub fn depchain(iters: i64) -> Program {
    let mut a = Asm::new();
    a.li(Gpr::S0, iters);
    let top = a.here();
    for _ in 0..16 {
        a.addi(Gpr::A1, Gpr::A1, 1);
    }
    a.addi(Gpr::S0, Gpr::S0, -1);
    a.bnez(Gpr::S0, top);
    a.halt();
    a.finish().expect("depchain assembles")
}

/// Branchy microbench: an LCG-parity data-dependent branch per
/// iteration — essentially unpredictable, mispredict-flush dominated.
pub fn branchy(iters: i64) -> Program {
    let mut a = Asm::new();
    a.li(Gpr::S0, 12345);
    a.li(Gpr::S1, 1103515245);
    a.li(Gpr::S2, 12345);
    a.li(Gpr::A2, 0);
    a.li(Gpr::A3, iters);
    let top = a.new_label();
    a.bind(top).expect("label binds");
    a.mul(Gpr::S0, Gpr::S0, Gpr::S1);
    a.add(Gpr::S0, Gpr::S0, Gpr::S2);
    a.srli(Gpr::T0, Gpr::S0, 17);
    a.andi(Gpr::T0, Gpr::T0, 1);
    let skip = a.new_label();
    a.beqz(Gpr::T0, skip);
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.bind(skip).expect("label binds");
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.halt();
    a.finish().expect("branchy assembles")
}

/// Three-phase workload built to exercise the *time-series*: an ALU
/// phase (high IPC), a pointer-chase phase (memory-bound, 4 KiB hops so
/// every load misses), then a branchy phase (mispredict-bound). The
/// dashboard's sparklines show the three regimes as distinct plateaus.
fn phased(alu_iters: i64, chase_iters: i64, branchy_iters: i64, chain_len: u64) -> Program {
    let mut a = Asm::new();
    let base_addr = xt_asm::DEFAULT_DATA_BASE;
    let mut chain = vec![0u64; chain_len as usize * 512];
    for k in 0..chain_len {
        let next_idx = ((k + 1) % chain_len) * 512;
        chain[(k * 512) as usize] = base_addr + next_idx * 8;
    }
    let base = a.data_u64("chain", &chain);
    assert_eq!(base, base_addr, "chain is the first data symbol");
    // phase 1: independent ALU
    a.li(Gpr::A3, alu_iters);
    let p1 = a.here();
    a.addi(Gpr::A1, Gpr::A1, 1);
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.addi(Gpr::A4, Gpr::A4, 1);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, p1);
    // phase 2: pointer chase
    a.la(Gpr::A1, base);
    a.li(Gpr::A3, chase_iters);
    let p2 = a.here();
    a.ld(Gpr::A1, Gpr::A1, 0);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, p2);
    // phase 3: unpredictable branches
    a.li(Gpr::S0, 12345);
    a.li(Gpr::S1, 1103515245);
    a.li(Gpr::S2, 12345);
    a.li(Gpr::A3, branchy_iters);
    let p3 = a.new_label();
    a.bind(p3).expect("label binds");
    a.mul(Gpr::S0, Gpr::S0, Gpr::S1);
    a.add(Gpr::S0, Gpr::S0, Gpr::S2);
    a.srli(Gpr::T0, Gpr::S0, 17);
    a.andi(Gpr::T0, Gpr::T0, 1);
    let skip = a.new_label();
    a.beqz(Gpr::T0, skip);
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.bind(skip).expect("label binds");
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, p3);
    a.halt();
    a.finish().expect("phased assembles")
}

/// Per-core private streaming kernel for the cluster section.
fn cluster_kernel(id: u64, loads: i64) -> Program {
    let mut a = Asm::new().with_data_base(0x8100_0000 + id * 0x0010_0000);
    let buf = a.data_zeros("buf", 64 * 1024);
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, loads);
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.addi(Gpr::A1, Gpr::A1, 8);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.halt();
    a.finish().expect("cluster kernel assembles")
}

/// The default memory system with `prefetch` swapped in.
pub fn mem_cfg(prefetch: PrefetchConfig) -> MemConfig {
    MemConfig {
        prefetch,
        ..MemConfig::default()
    }
}

/// Runs the sampled workload matrix. `smoke` shrinks every workload so
/// the matrix finishes in seconds (the CI gate size).
pub fn run_all(smoke: bool) -> Vec<StatRun> {
    let interval = sampling_interval(smoke);
    let stream_elems = if smoke { 2048 } else { STREAM_ELEMS };
    let depchain_iters = if smoke { 200 } else { 5000 };
    let branchy_iters = if smoke { 500 } else { 5000 };
    let (alu_i, chase_i, brn_i, chain) = if smoke {
        (300, 200, 300, 64)
    } else {
        (5000, 2000, 5000, 256)
    };

    let xt910 = CoreConfig::xt910();
    let u74 = CoreConfig::u74_like();
    let stream_k = stream(stream_elems);
    let dep = depchain(depchain_iters);
    let brn = branchy(branchy_iters);
    let phs = phased(alu_i, chase_i, brn_i, chain);

    let cell = |workload, (report, series): (RunReport, TimeSeries)| StatRun {
        workload,
        machine: report.machine,
        report,
        series,
    };
    let ooo = |workload, prog: &Program, mc: MemConfig| {
        let mut s = OooSession::with_mem(prog, &xt910, mc, MAX_INSTS);
        cell(workload, run_sampled(&mut s, interval))
    };
    let ino = |workload, prog: &Program, mc: MemConfig| {
        let mut s = InOrderSession::with_mem(prog, &u74, mc, MAX_INSTS);
        cell(workload, run_sampled(&mut s, interval))
    };

    vec![
        ooo("stream_pf_off", &stream_k.program, mem_cfg(PrefetchConfig::off())),
        ooo("stream_pf_on", &stream_k.program, mem_cfg(PrefetchConfig::all_large())),
        ooo("depchain", &dep, xt910.mem),
        ino("depchain", &dep, u74.mem),
        ooo("branchy", &brn, xt910.mem),
        ooo("phased", &phs, xt910.mem),
    ]
}

/// Runs the 4-core cluster cell. Simulated-cycle results are
/// deterministic for any thread count; host time is only reported in
/// full mode.
pub fn run_cluster(smoke: bool) -> ClusterSection {
    let loads = if smoke { 512 } else { 8192 };
    let progs: Vec<Program> = (0..4u64).map(|i| cluster_kernel(i, loads)).collect();
    let mc = MemConfig {
        cores: 4,
        ..MemConfig::default()
    };
    let r = ClusterSim::new(&progs, &CoreConfig::xt910(), mc, MAX_INSTS).run_threads(4);
    let cells = vec![ClusterCell {
        workload: "stream4",
        cores: 4,
        makespan: r.makespan(),
        instructions: r.total_instructions(),
        ipc: r.throughput_ipc(),
        snoops_sent: r.mem.snoops_sent,
        coh_transitions: r.mem.coh_transitions(),
        snoop_matrix: r.mem.snoop_matrix.clone(),
    }];
    let engine = if smoke {
        None
    } else {
        Some(EngineSection {
            epochs: r.engine.epochs,
            serial_ns: r.engine.serial_ns,
            parallel_ns: r.engine.parallel_ns,
            serial_share: r.engine.serial_share(),
        })
    };
    ClusterSection { cells, engine }
}

fn topdown_json(td: &TopDown, indent: &str) -> String {
    format!(
        "{indent}\"topdown\": {{ \"frontend\": {}, \"bad_speculation\": {}, \
         \"backend_core\": {}, \"backend_memory\": {}, \"vector\": {}, \"retiring\": {} }}",
        td.frontend, td.bad_speculation, td.backend_core, td.backend_memory, td.vector, td.retiring
    )
}

fn num_array<T: std::fmt::Display>(items: impl Iterator<Item = T>) -> String {
    let v: Vec<String> = items.map(|x| x.to_string()).collect();
    format!("[{}]", v.join(", "))
}

fn f64_array(items: impl Iterator<Item = f64>) -> String {
    let v: Vec<String> = items.map(json_f64).collect();
    format!("[{}]", v.join(", "))
}

/// Renders a run's `memory` block: core 0's miss-class attribution
/// (with its conservation total) plus the data-side prefetch scorecard
/// — aggregate columns summed over every stream slot, and the per-slot
/// breakdown for the non-zero slots. Instruction-side sequential
/// prefetches have no stream table and are excluded here (they report
/// only in the run totals), which is what makes `pf_late <= pf_useful`
/// hold structurally.
fn memory_json(mem: &xt_mem::MemStats, indent: &str) -> String {
    let scorecard = mem.pf_scorecard.first().map(Vec::as_slice).unwrap_or(&[]);
    let agg = |f: fn(&xt_mem::StreamScore) -> u64| -> u64 { scorecard.iter().map(f).sum() };
    let mut s = String::new();
    s.push_str(&format!("{indent}\"memory\": {{\n"));
    s.push_str(&format!("{indent}  \"misses\": {},\n", mem.l1d[0].1));
    s.push_str(&format!(
        "{indent}  \"compulsory\": {}, \"capacity\": {}, \"conflict\": {}, \"coherence\": {},\n",
        mem.miss_compulsory[0], mem.miss_capacity[0], mem.miss_conflict[0], mem.miss_coherence[0]
    ));
    s.push_str(&format!(
        "{indent}  \"pf_issued\": {}, \"pf_useful\": {}, \"pf_late\": {}, \"pf_useless\": {},\n",
        agg(|sc| sc.issued),
        agg(|sc| sc.useful),
        agg(|sc| sc.late),
        agg(|sc| sc.useless)
    ));
    s.push_str(&format!("{indent}  \"pf_scorecard\": ["));
    let slots: Vec<String> = scorecard
        .iter()
        .enumerate()
        .filter(|(_, sc)| sc.issued + sc.useful + sc.late + sc.useless > 0)
        .map(|(i, sc)| {
            format!(
                "{{ \"stream\": {i}, \"issued\": {}, \"useful\": {}, \"late\": {}, \
                 \"useless\": {}, \"accuracy\": {}, \"timeliness\": {} }}",
                sc.issued,
                sc.useful,
                sc.late,
                sc.useless,
                json_f64(sc.accuracy()),
                json_f64(sc.timeliness())
            )
        })
        .collect();
    s.push_str(&slots.join(", "));
    s.push_str("]\n");
    s.push_str(&format!("{indent}}}"));
    s
}

/// Renders the `BENCH_perf.json` document (schema `xt-stat/v2`).
pub fn render_json(runs: &[StatRun], cluster: &ClusterSection, smoke: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"xt-stat/v2\",\n");
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str(&format!(
        "  \"interval\": {},\n",
        sampling_interval(smoke)
    ));
    s.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let p = &r.report.perf;
        let td = r.series.aggregate_topdown();
        let tm = r.series.total_mem();
        s.push_str("    {\n");
        s.push_str(&format!("      \"workload\": \"{}\",\n", r.workload));
        s.push_str(&format!("      \"machine\": \"{}\",\n", r.machine));
        s.push_str("      \"totals\": {\n");
        s.push_str(&format!("        \"cycles\": {},\n", p.cycles));
        s.push_str(&format!("        \"instructions\": {},\n", p.instructions));
        s.push_str(&format!("        \"ipc\": {},\n", json_f64(p.ipc())));
        s.push_str(&format!(
            "        \"pf_accuracy\": {},\n",
            json_f64(tm.pf_accuracy())
        ));
        s.push_str(&format!(
            "        \"pf_coverage\": {},\n",
            json_f64(tm.pf_coverage())
        ));
        s.push_str(&format!(
            "        \"pf_streams\": {},\n",
            tm.pf_streams
        ));
        s.push_str(&format!(
            "        \"coh_transitions\": {},\n",
            tm.coh_transitions
        ));
        s.push_str(&topdown_json(&td, "        "));
        s.push('\n');
        s.push_str("      },\n");
        s.push_str("      \"series\": {\n");
        s.push_str(&format!(
            "        \"end_cycle\": {},\n",
            num_array(r.series.samples.iter().map(|x| x.end_cycle))
        ));
        s.push_str(&format!(
            "        \"ipc\": {},\n",
            f64_array(r.series.samples.iter().map(|x| x.perf.ipc()))
        ));
        s.push_str(&format!(
            "        \"l1d_miss_rate\": {},\n",
            f64_array(r.series.samples.iter().map(|x| x.mem.l1d_miss_rate()))
        ));
        s.push_str(&format!(
            "        \"pf_accuracy\": {},\n",
            f64_array(r.series.samples.iter().map(|x| x.mem.pf_accuracy()))
        ));
        s.push_str(&format!(
            "        \"backend_memory\": {},\n",
            num_array(r.series.samples.iter().map(|x| x.topdown.backend_memory))
        ));
        s.push_str(&format!(
            "        \"retiring\": {}\n",
            num_array(r.series.samples.iter().map(|x| x.topdown.retiring))
        ));
        s.push_str("      },\n");
        s.push_str(&memory_json(&r.report.mem, "      "));
        s.push('\n');
        let comma = if i + 1 < runs.len() { "," } else { "" };
        s.push_str(&format!("    }}{comma}\n"));
    }
    s.push_str("  ],\n");
    s.push_str("  \"cluster\": {\n");
    s.push_str("    \"cells\": [\n");
    for (i, c) in cluster.cells.iter().enumerate() {
        let comma = if i + 1 < cluster.cells.len() { "," } else { "" };
        s.push_str(&format!(
            "      {{ \"workload\": \"{}\", \"cores\": {}, \"makespan\": {}, \
             \"instructions\": {}, \"ipc\": {}, \"snoops_sent\": {}, \
             \"coh_transitions\": {}, \"snoop_matrix\": {} }}{}\n",
            c.workload,
            c.cores,
            c.makespan,
            c.instructions,
            json_f64(c.ipc),
            c.snoops_sent,
            c.coh_transitions,
            num_array(c.snoop_matrix.iter()),
            comma
        ));
    }
    s.push_str("    ],\n");
    match &cluster.engine {
        Some(e) => s.push_str(&format!(
            "    \"engine\": {{ \"epochs\": {}, \"serial_ns\": {}, \"parallel_ns\": {}, \
             \"serial_share\": {} }}\n",
            e.epochs,
            e.serial_ns,
            e.parallel_ns,
            json_f64(e.serial_share)
        )),
        None => s.push_str("    \"engine\": null\n"),
    }
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

/// Renders a unicode sparkline of `vals` scaled to the series maximum,
/// chunk-averaged down to at most 64 glyphs.
pub fn spark(vals: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if vals.is_empty() {
        return String::new();
    }
    let points: Vec<f64> = if vals.len() <= 64 {
        vals.to_vec()
    } else {
        // average fixed-size chunks so the line stays readable
        let chunk = vals.len().div_ceil(64);
        vals.chunks(chunk)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect()
    };
    let max = points.iter().cloned().fold(0.0f64, f64::max);
    points
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                LEVELS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            }
        })
        .collect()
}

/// Renders the Markdown dashboard.
pub fn render_markdown(runs: &[StatRun], cluster: &ClusterSection, smoke: bool) -> String {
    let mut s = String::new();
    s.push_str("# xt-stat performance dashboard\n\n");
    s.push_str(if smoke {
        "Smoke-sized run (`xt-stat --smoke`): shapes are meaningful, magnitudes are not.\n\n"
    } else {
        "Generated by `cargo run --release -p xt-perf --bin xt-stat`.\n\n"
    });
    s.push_str(&format!(
        "Sampling interval: {} cycles. See docs/OBSERVABILITY.md for \
         definitions and the baseline-refresh workflow.\n\n",
        sampling_interval(smoke)
    ));

    s.push_str("## Summary\n\n");
    s.push_str("| workload | machine | cycles | insts | IPC | intervals |\n");
    s.push_str("|---|---|---:|---:|---:|---:|\n");
    for r in runs {
        let p = &r.report.perf;
        s.push_str(&format!(
            "| {} | {} | {} | {} | {:.3} | {} |\n",
            r.workload,
            r.machine,
            p.cycles,
            p.instructions,
            p.ipc(),
            r.series.samples.len()
        ));
    }

    s.push_str("\n## Top-down cycle accounting (aggregate)\n\n");
    s.push_str("| workload | machine | frontend | bad-spec | backend-core | backend-mem | vector | retiring |\n");
    s.push_str("|---|---|---:|---:|---:|---:|---:|---:|\n");
    for r in runs {
        let td = r.series.aggregate_topdown();
        let sh = td.shares(r.report.perf.cycles);
        s.push_str(&format!(
            "| {} | {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% |\n",
            r.workload,
            r.machine,
            sh[0] * 100.0,
            sh[1] * 100.0,
            sh[2] * 100.0,
            sh[3] * 100.0,
            sh[4] * 100.0,
            sh[5] * 100.0,
        ));
    }

    s.push_str("\n## Time series\n\n");
    s.push_str(
        "Per-interval sparklines, each scaled to its own maximum \
         (leftmost = run start).\n\n",
    );
    for r in runs {
        let ipc: Vec<f64> = r.series.samples.iter().map(|x| x.perf.ipc()).collect();
        let miss: Vec<f64> = r
            .series
            .samples
            .iter()
            .map(|x| x.mem.l1d_miss_rate())
            .collect();
        let mem_share: Vec<f64> = r
            .series
            .samples
            .iter()
            .map(|x| x.topdown.backend_memory as f64 / x.perf.cycles.max(1) as f64)
            .collect();
        let fmax = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        s.push_str(&format!("### {} @ {}\n\n", r.workload, r.machine));
        s.push_str("```text\n");
        s.push_str(&format!("IPC          {}  (max {:.3})\n", spark(&ipc), fmax(&ipc)));
        s.push_str(&format!(
            "L1D miss     {}  (max {:.3})\n",
            spark(&miss),
            fmax(&miss)
        ));
        s.push_str(&format!(
            "mem-bound    {}  (max {:.3})\n",
            spark(&mem_share),
            fmax(&mem_share)
        ));
        s.push_str("```\n\n");
    }

    s.push_str("## Memory hierarchy\n\n");
    s.push_str(
        "L1D miss attribution (3C + coherence; classes sum to the miss \
         total exactly) and the data-side prefetch scorecard aggregates \
         (instruction-side sequential prefetches excluded). See \
         docs/OBSERVABILITY.md for the classification method and its \
         known limits.\n\n",
    );
    s.push_str("| workload | machine | misses | compulsory | capacity | conflict | coherence | pf issued | pf useful | pf late | pf useless |\n");
    s.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in runs {
        let mem = &r.report.mem;
        let scorecard = mem.pf_scorecard.first().map(Vec::as_slice).unwrap_or(&[]);
        let agg = |f: fn(&xt_mem::StreamScore) -> u64| -> u64 { scorecard.iter().map(f).sum() };
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.workload,
            r.machine,
            mem.l1d[0].1,
            mem.miss_compulsory[0],
            mem.miss_capacity[0],
            mem.miss_conflict[0],
            mem.miss_coherence[0],
            agg(|sc| sc.issued),
            agg(|sc| sc.useful),
            agg(|sc| sc.late),
            agg(|sc| sc.useless),
        ));
    }
    s.push('\n');

    s.push_str("## Multicore (epoch-barriered cluster engine)\n\n");
    s.push_str("| workload | cores | makespan | insts | IPC | snoops | coh-transitions |\n");
    s.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
    for c in &cluster.cells {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {:.3} | {} | {} |\n",
            c.workload, c.cores, c.makespan, c.instructions, c.ipc, c.snoops_sent, c.coh_transitions
        ));
    }
    for c in &cluster.cells {
        if c.snoop_matrix.iter().all(|&x| x == 0) {
            continue;
        }
        s.push_str(&format!(
            "\nSnoop matrix for {} (rows = requester, columns = holder):\n\n",
            c.workload
        ));
        s.push_str("```text\n");
        for r in 0..c.cores {
            let row: Vec<String> = (0..c.cores)
                .map(|h| format!("{:>6}", c.snoop_matrix[r * c.cores + h]))
                .collect();
            s.push_str(&format!("core{r} {}\n", row.join(" ")));
        }
        s.push_str("```\n");
    }
    match &cluster.engine {
        Some(e) => s.push_str(&format!(
            "\nEngine host time: {} epochs, serial barrier {:.1}% of engine wall \
             clock ({} ns serial / {} ns parallel). Informational: host time is \
             not part of the determinism contract.\n",
            e.epochs,
            e.serial_share * 100.0,
            e.serial_ns,
            e.parallel_ns
        )),
        None => s.push_str("\nEngine host time: not measured in smoke mode.\n"),
    }
    s
}

// ---- what the gate needs to know (crate::gate does the rest) ----

/// Reads a required numeric field out of `obj`, for the conservation
/// checks in [`validate_memory`].
fn req_num(obj: &Value, ctx: &str, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("{ctx}: missing numeric \"{key}\""))
}

/// Validates the memory-observability conservation laws inside one
/// xt-stat document:
///
/// * per run: `misses == compulsory + capacity + conflict + coherence`
///   (the miss-classification conservation law) and `pf_late <=
///   pf_useful` (a late prefetch is by definition also useful);
/// * per cluster cell: `snoop_matrix` sums to `snoops_sent`.
///
/// [`crate::gate::diff`] runs this on both documents (through
/// [`ARTIFACT`]), so a fabricated or stale artifact that breaks
/// event-count accounting fails the CI gate even when every number
/// matches.
pub fn validate_memory(doc: &Value) -> Result<(), String> {
    let runs = doc.get("runs").and_then(Value::as_arr).ok_or("no runs array")?;
    for r in runs {
        let w = r.get("workload").and_then(Value::as_str).unwrap_or("?");
        let m = r.get("machine").and_then(Value::as_str).unwrap_or("?");
        let ctx = format!("{w}@{m} memory");
        let mem = r
            .get("memory")
            .ok_or_else(|| format!("{ctx}: missing memory block"))?;
        let misses = req_num(mem, &ctx, "misses")?;
        let classes = ["compulsory", "capacity", "conflict", "coherence"]
            .iter()
            .map(|k| req_num(mem, &ctx, k))
            .sum::<Result<f64, _>>()?;
        if misses != classes {
            return Err(format!(
                "{ctx}: miss classes sum to {classes}, but misses = {misses} \
                 (conservation law violated)"
            ));
        }
        let (useful, late) = (req_num(mem, &ctx, "pf_useful")?, req_num(mem, &ctx, "pf_late")?);
        if late > useful {
            return Err(format!("{ctx}: pf_late {late} > pf_useful {useful}"));
        }
    }
    let cells = doc
        .get("cluster")
        .and_then(|c| c.get("cells"))
        .and_then(Value::as_arr)
        .ok_or("no cluster cells")?;
    for c in cells {
        let w = c.get("workload").and_then(Value::as_str).unwrap_or("?");
        let ctx = format!("cluster {w}");
        let sent = req_num(c, &ctx, "snoops_sent")?;
        let matrix = c
            .get("snoop_matrix")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{ctx}: missing snoop_matrix"))?;
        let sum: f64 = matrix.iter().filter_map(Value::as_num).sum();
        if sum != sent {
            return Err(format!(
                "{ctx}: snoop_matrix sums to {sum}, but snoops_sent = {sent}"
            ));
        }
    }
    Ok(())
}

/// An `xt-stat/v2` document that conserves.
fn validate(doc: &Value) -> Result<(), String> {
    expect_schema(doc, "xt-stat/v2")?;
    validate_memory(doc)
}

/// `BENCH_perf.json` as [`crate::gate`] sees it: the `engine` block is
/// measured host time; a miss class or a snoop count bumped on its own
/// breaks a conservation law and must be refused.
pub const ARTIFACT: Artifact = Artifact {
    tool: "xt-stat",
    validate,
    host_keys: &["engine"],
    forgeries: &["compulsory", "snoops_sent"],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{diff, map_key, selftest};
    use crate::json::parse;

    fn smoke_artifacts() -> (Vec<StatRun>, ClusterSection) {
        (run_all(true), run_cluster(true))
    }

    #[test]
    fn smoke_is_deterministic_and_conserved() {
        let (r1, c1) = smoke_artifacts();
        let (r2, c2) = smoke_artifacts();
        assert_eq!(
            render_json(&r1, &c1, true),
            render_json(&r2, &c2, true),
            "byte-identical JSON"
        );
        assert_eq!(render_markdown(&r1, &c1, true), render_markdown(&r2, &c2, true));
        for r in &r1 {
            r.series
                .conserves(&r.report.perf, &r.report.mem, 0)
                .unwrap_or_else(|e| panic!("{}@{}: {e}", r.workload, r.machine));
        }
    }

    #[test]
    fn smoke_json_parses_and_diffs_clean_against_itself() {
        let (runs, cluster) = smoke_artifacts();
        let doc = parse(&render_json(&runs, &cluster, true)).expect("own JSON parses");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("xt-stat/v2"));
        assert!(doc.get("cluster").and_then(|c| c.get("engine")) == Some(&Value::Null));
        let out = diff(&ARTIFACT, &doc, &doc, 0.0).expect("comparable");
        assert!(out.issues.is_empty());
        assert!(out.compared > 0);
        selftest(&ARTIFACT, &doc, 0.0).expect("gate self-test");
        selftest(&ARTIFACT, &doc, 0.05).expect("gate self-test with a tolerance band");
    }

    #[test]
    fn diff_flags_an_injected_ipc_regression() {
        let (runs, cluster) = smoke_artifacts();
        let doc = parse(&render_json(&runs, &cluster, true)).unwrap();
        let hurt = map_key(&doc, "ipc", &|n| n * 0.8);
        let out = diff(&ARTIFACT, &doc, &hurt, 0.05).expect("comparable");
        assert!(
            out.issues.iter().any(|i| i.contains("totals.ipc") && i.contains("-20.00%")),
            "20% IPC drop flagged at 5% tolerance: {:?}",
            out.issues
        );
        // within tolerance: clean
        let nudge = map_key(&doc, "ipc", &|n| n * 0.999);
        let out = diff(&ARTIFACT, &doc, &nudge, 0.05).expect("comparable");
        assert!(out.issues.is_empty(), "0.1% wiggle passes 5%: {:?}", out.issues);
    }

    #[test]
    fn forged_event_counts_fail_the_conservation_gate() {
        let (runs, cluster) = smoke_artifacts();
        let doc = parse(&render_json(&runs, &cluster, true)).unwrap();
        validate_memory(&doc).expect("generated artifact conserves");
        let forged = map_key(&doc, "compulsory", &|n| n + 1.0);
        let err = validate_memory(&forged).expect_err("forged counts rejected");
        assert!(err.contains("conservation"), "got: {err}");
        let err = diff(&ARTIFACT, &doc, &forged, 0.5).expect_err("diff refuses forged candidate");
        assert!(err.starts_with("candidate:"), "got: {err}");
    }

    #[test]
    fn phased_workload_shows_distinct_regimes() {
        let (runs, _) = smoke_artifacts();
        let phased = runs
            .iter()
            .find(|r| r.workload == "phased")
            .expect("phased run exists");
        let ipc: Vec<f64> = phased.series.samples.iter().map(|s| s.perf.ipc()).collect();
        assert!(ipc.len() >= 3, "phased run spans several intervals");
        let max = ipc.iter().cloned().fold(0.0f64, f64::max);
        let min = ipc.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > 2.0 * min.max(0.01),
            "phases should differ in IPC: min {min:.3} max {max:.3}"
        );
    }

    #[test]
    fn prefetch_story_visible_in_totals() {
        let (runs, _) = smoke_artifacts();
        let cyc = |w: &str| {
            runs.iter()
                .find(|r| r.workload == w && r.machine == "XT-910")
                .map(|r| r.report.perf.cycles)
                .expect("cell exists")
        };
        assert!(cyc("stream_pf_on") < cyc("stream_pf_off"));
        let tm = |w: &str| {
            runs.iter()
                .find(|r| r.workload == w && r.machine == "XT-910")
                .map(|r| r.series.total_mem())
                .expect("cell exists")
        };
        let on = tm("stream_pf_on");
        assert!(on.pf_issued > 0, "prefetcher ran");
        assert!(on.pf_useful > 0, "some prefetched lines were demanded");
        assert!(on.pf_streams > 0, "STREAM confirms prefetch streams");
        assert_eq!(tm("stream_pf_off").pf_issued, 0, "ablation actually off");
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(spark(&[]), "");
        assert_eq!(spark(&[0.0, 0.0]), "▁▁");
        let line = spark(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
        let long: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!(spark(&long).chars().count() <= 64);
    }
}
