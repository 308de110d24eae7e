//! The `xt-stat` observability report and regression gate.
//!
//! `run_all` runs the single-core workload matrix with interval
//! sampling and `run_cluster` the multicore cells; `render_json` emits
//! the `BENCH_perf.json` artifact (schema `xt-stat/v3`: per run, totals
//! with the per-cause stall attribution and the top-down buckets, the
//! interval time-series and a `memory` block — miss-class mix, prefetch
//! scorecard; per cluster cell, coherence traffic and a per-core-pair
//! snoop matrix), `render_markdown` the dashboard, and [`ARTIFACT`]
//! describes the document to [`crate::gate`], whose `diff` /
//! `selftest` are the CI gate that compares a candidate run against a
//! committed baseline. Part of that description is which rows of
//! [`xt_core::laws::LAWS`] each block of the document carries, so a
//! fabricated count mismatch fails CI.
//!
//! Everything except the full-mode `engine` block (measured host time,
//! explicitly informational) is deterministic: same binary, same
//! flags → byte-identical artifacts. The smoke artifact sets
//! `"engine": null` and is therefore byte-reproducible end to end —
//! that is what `scripts/ci.sh` pins with `diff --tolerance 0`.

use crate::gate::{expect_schema, Artifact};
use crate::json::{json_f64, Value};
use crate::sampler::TimeSeries;
use crate::topdown::TopDown;
use crate::{sample_insts, seal, Sampler};
use xt_asm::{Asm, Program};
use xt_core::laws::{self, Counters, Law};
use xt_core::session::CoreModel;
use xt_core::{
    CoreConfig, InOrderCore, OooCore, PerfCounters, RunReport, Session, StallCause,
};
use xt_isa::reg::Gpr;
use xt_mem::{MemConfig, PrefetchConfig};
use xt_snapshot::SnapshotState;
use xt_soc::{ClusterReport, ClusterSim};
use xt_workloads::stream::{stream, STREAM_ELEMS};

/// The schema tag of the document [`render_json`] writes.
const SCHEMA: &str = "xt-stat/v3";

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
    /// Dirty-line cache-to-cache transfers.
    pub c2c_transfers: u64,
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

/// One line per workload, for the dashboard's notes.
const NOTES: &[(&str, &str)] = &[
    (
        "stream_pf_off",
        "STREAM copy/scale/add/triad (Fig. 21), hardware prefetch disabled — every array \
         access pays the memory latency; DCacheMiss should dominate the stall breakdown.",
    ),
    (
        "stream_pf_on",
        "Same STREAM pass with the §V-C multi-stream prefetcher enabled — the prefetch-hit \
         counter and the shrunken DCacheMiss share are the paper's Fig. 21 story.",
    ),
    (
        "depchain",
        "A loop body of 16 serially dependent ALU ops: IPC pins near 1 regardless of width, \
         and the 48-entry issue queue fills behind the chain (IqFull attribution; the \
         192-entry ROB never backs up because dispatch is IQ-limited first).",
    ),
    (
        "branchy",
        "An LCG-parity data-dependent branch per iteration (essentially unpredictable): \
         mispredict flushes dominate (MispredictFlush attribution, §III-A penalty).",
    ),
    (
        "phased",
        "ALU → pointer-chase → branchy phases: the time-series shows three regimes the \
         aggregate averages away.",
    ),
    (
        "stream4",
        "Four cores each summing a private 64 KiB array: multicore throughput plus the \
         engine's epoch and host-time statistics.",
    ),
    (
        "stream_rate",
        "One summation pass per core over a private array at 1/2/4 cores: private \
         working sets, so the snoop filter keeps coherence traffic near zero.",
    ),
    (
        "producer_consumer",
        "Mailbox pairs (data, fence, flag) at 1/2/4 cores; the 1-core row is a lone \
         producer. Every handoff moves a dirty line core to core.",
    ),
];

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

/// Per-core private streaming kernel for the `stream4` cell.
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

/// A per-core streaming kernel: `passes` summation sweeps over a
/// private `kib`-KiB array, placed in a disjoint region per core.
pub fn stream_core(id: u64, kib: usize, passes: i64) -> Program {
    let mut a = Asm::new().with_data_base(0x8200_0000 + id * 0x0100_0000);
    let buf = a.data_zeros("buf", kib * 1024);
    a.li(Gpr::A6, passes);
    let outer = a.here();
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, (kib * 1024 / 8) as i64);
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.addi(Gpr::A1, Gpr::A1, 8);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.addi(Gpr::A6, Gpr::A6, -1);
    a.bnez(Gpr::A6, outer);
    a.halt();
    a.finish().expect("stream kernel assembles")
}

/// Mailboxes live at the shared default data base; 64-byte stride keeps
/// each producer/consumer pair on its own cache line.
const MAILBOX_STRIDE: u64 = 64;

/// Producer half of a pair: publish `data = k`, fence, `flag = k`.
fn producer(pair: u64, items: i64) -> Program {
    let mut a = Asm::new();
    let mb = a.data_zeros("mailboxes", 128) + pair * MAILBOX_STRIDE;
    a.la(Gpr::A1, mb);
    a.li(Gpr::A2, 1);
    a.li(Gpr::A3, items);
    let top = a.here();
    a.sd(Gpr::A2, Gpr::A1, 0); // data = k
    a.fence();
    a.sd(Gpr::A2, Gpr::A1, 8); // flag = k
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.li(Gpr::A0, 0);
    a.halt();
    a.finish().expect("producer assembles")
}

/// Consumer half: spin (with a fence, so the spin parks once per epoch
/// instead of burning the whole slice) until `flag >= k`, then check
/// `data >= k`. Exit code counts handshake violations — must be 0.
fn consumer(pair: u64, items: i64) -> Program {
    let mut a = Asm::new();
    let mb = a.data_zeros("mailboxes", 128) + pair * MAILBOX_STRIDE;
    a.la(Gpr::A1, mb);
    a.li(Gpr::A2, 1);
    a.li(Gpr::A3, items);
    a.li(Gpr::A0, 0);
    let top = a.here();
    let spin = a.here();
    a.ld(Gpr::A4, Gpr::A1, 8); // flag
    a.fence();
    a.blt(Gpr::A4, Gpr::A2, spin);
    a.ld(Gpr::A5, Gpr::A1, 0); // data, program-later than flag
    a.sltu(Gpr::A6, Gpr::A5, Gpr::A2); // data older than expected?
    a.or_(Gpr::A0, Gpr::A0, Gpr::A6);
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.halt();
    a.finish().expect("consumer assembles")
}

/// The producer/consumer program set for `n` cores: pairs share a
/// mailbox; the 1-core row degenerates to a lone producer (the
/// uncontended baseline).
fn producer_consumer_progs(n: usize, items: i64) -> Vec<Program> {
    match n {
        1 => vec![producer(0, items)],
        2 => vec![producer(0, items), consumer(0, items)],
        4 => vec![
            producer(0, items),
            consumer(0, items),
            producer(1, items),
            consumer(1, items),
        ],
        _ => unreachable!("the memory system supports 1, 2 or 4 cores"),
    }
}

/// The default memory system with `prefetch` swapped in.
fn mem_cfg(prefetch: PrefetchConfig) -> MemConfig {
    MemConfig {
        prefetch,
        ..MemConfig::default()
    }
}

/// Runs a session built by `fresh` with a [`Sampler`] attached. With
/// `snapshot_every`, the session and the sampler both cross a
/// save/restore frame every that many retired instructions, into a
/// fresh session and sampler that carry the run on; the result must be
/// bit-identical to the uninterrupted run's (docs/SNAPSHOT.md).
fn run_cell<C: CoreModel>(
    fresh: impl Fn() -> Session<C>,
    interval: u64,
    snapshot_every: Option<u64>,
) -> (RunReport, TimeSeries) {
    let every = snapshot_every.unwrap_or(u64::MAX);
    let mut s = fresh();
    let mut sampler = Sampler::new(0, interval);
    while sample_insts(&mut s, &mut sampler, every) == every {
        let frame = s.save();
        let mut e = xt_snapshot::Enc::new();
        sampler.save(&mut e);
        s = fresh();
        s.restore(&frame)
            .expect("a session restores into an identically built one");
        sampler = Sampler::new(0, interval);
        let mut d = xt_snapshot::Dec::new(e.bytes());
        sampler
            .restore(&mut d)
            .and_then(|()| d.finish())
            .expect("a sampler restores into an identically built one");
    }
    seal(&mut s, sampler)
}

/// Runs the sampled workload matrix. `smoke` shrinks every workload so
/// the matrix finishes in seconds (the CI gate size).
pub fn run_all(smoke: bool) -> Vec<StatRun> {
    run_matrix(smoke, None)
}

/// [`run_all`], each run optionally cut by a save/restore frame every
/// `snapshot_every` retired instructions (see `run_cell`).
fn run_matrix(smoke: bool, snapshot_every: Option<u64>) -> Vec<StatRun> {
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
        let fresh = || Session::<OooCore>::with_mem(prog, &xt910, mc, MAX_INSTS);
        cell(workload, run_cell(fresh, interval, snapshot_every))
    };
    let ino = |workload, prog: &Program, mc: MemConfig| {
        let fresh = || Session::<InOrderCore>::with_mem(prog, &u74, mc, MAX_INSTS);
        cell(workload, run_cell(fresh, interval, snapshot_every))
    };

    // the first six runs keep their positions in the committed
    // baselines; new runs are appended
    vec![
        ooo("stream_pf_off", &stream_k.program, mem_cfg(PrefetchConfig::off())),
        ooo("stream_pf_on", &stream_k.program, mem_cfg(PrefetchConfig::all_large())),
        ooo("depchain", &dep, xt910.mem),
        ino("depchain", &dep, u74.mem),
        ooo("branchy", &brn, xt910.mem),
        ooo("phased", &phs, xt910.mem),
        ino("stream_pf_off", &stream_k.program, mem_cfg(PrefetchConfig::off())),
        ino("stream_pf_on", &stream_k.program, mem_cfg(PrefetchConfig::all_large())),
        ino("branchy", &brn, u74.mem),
    ]
}

/// Runs `progs` on an XT-910 cluster of as many cores. Simulated-cycle
/// results are deterministic for any thread count.
fn cluster(progs: &[Program]) -> ClusterReport {
    let mc = MemConfig {
        cores: progs.len(),
        ..MemConfig::default()
    };
    ClusterSim::new(progs, &CoreConfig::xt910(), mc, MAX_INSTS).run_threads(4)
}

fn cluster_cell(workload: &'static str, r: &ClusterReport) -> ClusterCell {
    ClusterCell {
        workload,
        cores: r.cores.len(),
        makespan: r.makespan(),
        instructions: r.total_instructions(),
        ipc: r.throughput_ipc(),
        snoops_sent: r.mem.snoops_sent,
        c2c_transfers: r.mem.c2c_transfers,
        coh_transitions: r.mem.coh_transitions(),
        snoop_matrix: r.mem.snoop_matrix.clone(),
    }
}

/// Runs the cluster cells: the 4-core `stream4`, then STREAM-rate and
/// producer/consumer at 1/2/4 cores. Host time is only reported in full
/// mode, for `stream4`.
pub fn run_cluster(smoke: bool) -> ClusterSection {
    let loads = if smoke { 512 } else { 8192 };
    let kib = if smoke { 32 } else { 256 };
    let items = if smoke { 32 } else { 200 };
    let r = cluster(&(0..4u64).map(|i| cluster_kernel(i, loads)).collect::<Vec<_>>());
    let engine = (!smoke).then(|| EngineSection {
        epochs: r.engine.epochs,
        serial_ns: r.engine.serial_ns,
        parallel_ns: r.engine.parallel_ns,
        serial_share: r.engine.serial_share(),
    });
    let mut cells = vec![cluster_cell("stream4", &r)];
    for n in [1u64, 2, 4] {
        let progs: Vec<Program> = (0..n).map(|i| stream_core(i, kib, 1)).collect();
        cells.push(cluster_cell("stream_rate", &cluster(&progs)));
    }
    for n in [1usize, 2, 4] {
        let r = cluster(&producer_consumer_progs(n, items));
        for (i, code) in r.exit_codes.iter().enumerate() {
            assert_eq!(
                *code,
                Some(0),
                "producer/consumer core {i} failed its handshake at {n} cores"
            );
        }
        cells.push(cluster_cell("producer_consumer", &r));
    }
    ClusterSection { cells, engine }
}

fn topdown_json(td: &TopDown, indent: &str) -> String {
    format!(
        "{indent}\"topdown\": {{ \"frontend\": {}, \"bad_speculation\": {}, \
         \"backend_core\": {}, \"backend_memory\": {}, \"vector\": {}, \"retiring\": {} }}",
        td.frontend, td.bad_speculation, td.backend_core, td.backend_memory, td.vector, td.retiring
    )
}

/// The per-cause stall attribution, in [`StallCause::ALL`] order.
fn stalls_json(p: &PerfCounters, indent: &str) -> String {
    let causes: Vec<String> = StallCause::ALL
        .iter()
        .map(|c| format!("\"{}\": {}", c.name(), p.stall(*c)))
        .collect();
    format!("{indent}\"stalls\": {{ {} }}", causes.join(", "))
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

/// Renders the `BENCH_perf.json` document (schema `xt-stat/v3`).
pub fn render_json(runs: &[StatRun], cluster: &ClusterSection, smoke: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
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
            "        \"branch_accuracy\": {},\n",
            json_f64(p.branch_accuracy())
        ));
        s.push_str(&format!("        \"prefetch_hits\": {},\n", p.prefetch_hits));
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
        s.push_str(&stalls_json(p, "        "));
        s.push_str(",\n");
        s.push_str(&format!(
            "        \"unattributed\": {},\n",
            p.cycles - p.attributed_stall_cycles()
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
             \"c2c_transfers\": {}, \"coh_transitions\": {}, \"snoop_matrix\": {} }}{}\n",
            c.workload,
            c.cores,
            c.makespan,
            c.instructions,
            json_f64(c.ipc),
            c.snoops_sent,
            c.c2c_transfers,
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

    s.push_str("\n## Stall attribution (frontier-based; sums ≤ cycles)\n\n");
    s.push_str("| workload | machine | br-acc | pf-hits |");
    for cause in StallCause::ALL {
        s.push_str(&format!(" {} |", cause.name()));
    }
    s.push_str(" unattributed |\n|---|---|---:|---:|");
    for _ in 0..StallCause::ALL.len() + 1 {
        s.push_str("---:|");
    }
    s.push('\n');
    for r in runs {
        let p = &r.report.perf;
        s.push_str(&format!(
            "| {} | {} | {:.1}% | {} |",
            r.workload,
            r.machine,
            p.branch_accuracy() * 100.0,
            p.prefetch_hits
        ));
        for cause in StallCause::ALL {
            s.push_str(&format!(" {} |", p.stall(cause)));
        }
        s.push_str(&format!(
            " {} |\n",
            p.cycles - p.attributed_stall_cycles()
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

    s.push_str("## Multicore (epoch-barriered cluster engine, docs/CLUSTER.md)\n\n");
    s.push_str("| workload | cores | makespan | insts | IPC | snoops | c2c | coh-transitions |\n");
    s.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for c in &cluster.cells {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {:.3} | {} | {} | {} |\n",
            c.workload,
            c.cores,
            c.makespan,
            c.instructions,
            c.ipc,
            c.snoops_sent,
            c.c2c_transfers,
            c.coh_transitions
        ));
    }
    for c in &cluster.cells {
        if c.snoop_matrix.iter().all(|&x| x == 0) {
            continue;
        }
        s.push_str(&format!(
            "\nSnoop matrix for {} at {} cores (rows = requester, columns = holder):\n\n",
            c.workload, c.cores
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

    s.push_str("\n## Workloads\n\n");
    for (workload, note) in NOTES {
        s.push_str(&format!("- **{workload}** — {note}\n"));
    }
    s
}

// ---- what the gate needs to know (crate::gate does the rest) ----

/// The JSON view of a block: a number, or the sum of an array's or an
/// object's entries, each an integer below 2^53.
impl Counters for Value {
    fn sum(&self, name: &str) -> Option<i128> {
        let int = |v: &Value| match v.as_num() {
            Some(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(53) => Some(n as i128),
            _ => None,
        };
        match self.get(name)? {
            Value::Arr(items) => items.iter().map(int).sum(),
            Value::Obj(fields) => fields.iter().map(|(_, v)| int(v)).sum(),
            v => int(v),
        }
    }
}

/// The laws each run's `totals` and `memory` blocks carry.
const RUN_LAWS: [(&str, &[Law]); 2] = [
    ("totals", &[laws::UNATTRIBUTED, laws::TOPDOWN]),
    ("memory", &[laws::MISS_CLASSES, laws::LATE_LE_USEFUL]),
];

/// The laws each cluster cell carries.
const CELL_LAWS: &[Law] = &[laws::SNOOP_MATRIX];

/// An `xt-stat/v3` document that conserves: [`RUN_LAWS`] hold in every
/// run and [`CELL_LAWS`] in every cluster cell.
fn validate(doc: &Value) -> Result<(), String> {
    expect_schema(doc, SCHEMA)?;
    let runs = doc.get("runs").and_then(Value::as_arr);
    for r in runs.ok_or("no runs array")? {
        let field = |k| r.get(k).and_then(Value::as_str).unwrap_or("?");
        for (block, carried) in RUN_LAWS {
            let ctx = format!("{}@{} {block}", field("workload"), field("machine"));
            let b = r.get(block).unwrap_or(&Value::Null);
            laws::check(b, carried).map_err(|e| format!("{ctx}: {e}"))?;
        }
    }
    let cells = doc
        .get("cluster")
        .and_then(|c| c.get("cells"))
        .and_then(Value::as_arr)
        .ok_or("no cluster cells")?;
    for c in cells {
        let w = c.get("workload").and_then(Value::as_str).unwrap_or("?");
        laws::check(c, CELL_LAWS).map_err(|e| format!("cluster {w}: {e}"))?;
    }
    Ok(())
}

/// `BENCH_perf.json` as [`crate::gate`] sees it: the `engine` block is
/// measured host time; each forgery bumps one term of one law the
/// document carries, which must then be refused.
pub const ARTIFACT: Artifact = Artifact {
    tool: "xt-stat",
    validate,
    host_keys: &["engine"],
    forgeries: &[
        "compulsory",
        "snoops_sent",
        "unattributed",
        "retiring",
        "pf_late",
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{diff, map_key, selftest};
    use crate::json::parse;

    fn smoke_artifacts() -> (Vec<StatRun>, ClusterSection) {
        (run_all(true), run_cluster(true))
    }

    fn find<'a>(runs: &'a [StatRun], workload: &str, machine: &str) -> &'a StatRun {
        runs.iter()
            .find(|r| r.workload == workload && r.machine == machine)
            .unwrap_or_else(|| panic!("{workload}@{machine} is in the matrix"))
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
        assert_eq!(r1.len(), 9, "six sampled runs, then the three in-order ones");
        for r in &r1 {
            laws::check(&r.report.perf, &[laws::STALL_BUDGET])
                .unwrap_or_else(|e| panic!("{}@{}: {e}", r.workload, r.machine));
            r.series
                .conserves(&r.report.perf, &r.report.mem, 0)
                .unwrap_or_else(|e| panic!("{}@{}: {e}", r.workload, r.machine));
        }
    }

    #[test]
    fn snapshotted_matrix_matches_uninterrupted() {
        let cluster = run_cluster(true);
        assert_eq!(
            render_json(&run_all(true), &cluster, true),
            render_json(&run_matrix(true, Some(777)), &cluster, true),
            "save/restore of session and sampler every 777 insts must not change BENCH_perf.json"
        );
    }

    #[test]
    fn smoke_json_parses_and_diffs_clean_against_itself() {
        let (runs, cluster) = smoke_artifacts();
        let doc = parse(&render_json(&runs, &cluster, true)).expect("own JSON parses");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
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
        validate(&doc).expect("generated artifact conserves");
        for (key, law) in [
            ("compulsory", "miss_classes"),
            ("pf_late", "late_le_useful"),
            ("snoops_sent", "snoop_matrix"),
        ] {
            let forged = map_key(&doc, key, &|n| n + 1.0);
            let err = validate(&forged).expect_err("forged counts rejected");
            assert!(err.contains(&format!("law {law} broken")), "{key}: {err}");
            let err = diff(&ARTIFACT, &doc, &forged, 0.5).expect_err("diff refuses forged candidate");
            assert!(err.starts_with("candidate:"), "{key}: {err}");
        }
    }

    #[test]
    fn forged_cycle_identities_are_refused() {
        let (runs, cluster) = smoke_artifacts();
        let doc = parse(&render_json(&runs, &cluster, true)).unwrap();
        validate(&doc).expect("generated artifact conserves");
        for (key, law) in [("unattributed", "unattributed"), ("retiring", "topdown")] {
            let forged = map_key(&doc, key, &|n| n + 1.0);
            let err = diff(&ARTIFACT, &doc, &forged, 0.5).expect_err("diff refuses forged candidate");
            assert!(err.starts_with("candidate:"), "{key}: {err}");
            assert!(err.contains(&format!("law {law} broken")), "{key}: {err}");
        }
    }

    #[test]
    fn every_carried_law_has_a_refused_forgery() {
        let (runs, cluster) = smoke_artifacts();
        let doc = parse(&render_json(&runs, &cluster, true)).unwrap();
        validate(&doc).expect("generated artifact conserves");
        let carried = RUN_LAWS.iter().flat_map(|(_, l)| l.iter()).chain(CELL_LAWS);
        let mut unforged: Vec<&str> = carried.map(|l| l.name).collect();
        for key in ARTIFACT.forgeries {
            let forged = map_key(&doc, key, &|n| n + 1.0);
            let err = diff(&ARTIFACT, &doc, &forged, 0.5).expect_err("diff refuses forged candidate");
            assert!(err.starts_with("candidate:"), "{key}: {err}");
            unforged.retain(|law| !err.contains(&format!("law {law} broken")));
        }
        assert!(unforged.is_empty(), "no forgery breaks {unforged:?}");
        selftest(&ARTIFACT, &doc, 0.0).expect("selftest refuses every forgery");
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
        for machine in ["XT-910", "U74-like in-order"] {
            let on = find(&runs, "stream_pf_on", machine);
            let off = find(&runs, "stream_pf_off", machine);
            assert!(on.report.perf.cycles < off.report.perf.cycles, "{machine}");
            let on = on.series.total_mem();
            assert!(on.pf_issued > 0, "prefetcher ran on {machine}");
            assert!(on.pf_useful > 0, "some prefetched lines were demanded on {machine}");
            assert!(on.pf_streams > 0, "STREAM confirms prefetch streams on {machine}");
            assert_eq!(off.series.total_mem().pf_issued, 0, "ablation actually off");
        }
    }

    #[test]
    fn multicore_section_is_deterministic() {
        let a = run_cluster(true);
        let b = run_cluster(true);
        assert_eq!(a.cells.len(), 7, "stream4, then stream + producer/consumer at 1/2/4");
        assert!(a.engine.is_none(), "smoke mode skips wall-clock numbers");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.makespan, cb.makespan, "{}", ca.workload);
            assert_eq!(ca.instructions, cb.instructions);
            assert_eq!(ca.snoops_sent, cb.snoops_sent);
            assert_eq!(ca.c2c_transfers, cb.c2c_transfers);
            assert_eq!(ca.snoop_matrix, cb.snoop_matrix);
        }
    }

    #[test]
    fn producer_consumer_contends_more_than_stream() {
        let s = run_cluster(true);
        let at4 = |w: &str| {
            s.cells
                .iter()
                .find(|c| c.workload == w && c.cores == 4)
                .unwrap()
        };
        assert!(
            at4("producer_consumer").c2c_transfers > at4("stream_rate").c2c_transfers,
            "mailbox handoffs move dirty lines core to core"
        );
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
