//! Multi-core scaling and coherence experiments (Figs. 2/13, §VI),
//! plus the `xt-report` multicore section: deterministic STREAM-rate
//! and producer/consumer cells at 1/2/4 cores, and (outside smoke
//! mode) the host simulation speed of the epoch-barriered parallel
//! engine at 1 vs 4 worker threads.

use crate::figures::{Figure, Row};
use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::{ClusterReport, ClusterSim};

/// A per-core streaming kernel: `passes` summation sweeps over a
/// private `kib`-KiB array, placed in a disjoint region per core.
fn stream_core(id: u64, kib: usize, passes: i64) -> Program {
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
    a.finish().unwrap()
}

/// A per-core private working-set kernel (sum over a 256 KiB array).
fn private_kernel(id: u64) -> Program {
    stream_core(id, 256, 1)
}

/// Throughput scaling over 1/2/4 cores on private working sets
/// (Table I's cluster sizes).
pub fn scaling() -> Figure {
    let run = |n: usize| {
        let progs: Vec<Program> = (0..n as u64).map(private_kernel).collect();
        let mem = MemConfig {
            cores: n,
            ..MemConfig::default()
        };
        ClusterSim::new(&progs, &CoreConfig::xt910(), mem, 100_000_000)
            .run()
            .throughput_ipc()
    };
    let one = run(1);
    let two = run(2);
    let four = run(4);
    Figure {
        title: "Multi-core throughput scaling (private sets)".into(),
        unit: "aggregate IPC (and scaling vs 1 core)".into(),
        rows: vec![
            Row {
                label: "1 core".into(),
                value: one,
                paper: None,
            },
            Row {
                label: "2 cores".into(),
                value: two,
                paper: None,
            },
            Row {
                label: "4 cores".into(),
                value: four,
                paper: None,
            },
            Row {
                label: "4-core scaling".into(),
                value: four / one,
                paper: None,
            },
        ],
    }
}

/// Snoop-filter effectiveness: private vs shared-line traffic (§VI:
/// "a snoop filter … effectively reduces the inter-core communications").
pub fn snoop_filter() -> Figure {
    // shared-counter kernel
    let shared = |iters: i64| -> Program {
        let mut a = Asm::new();
        let cell = a.data_u64("cell", &[0]);
        a.la(xt_isa::reg::Gpr::A1, cell);
        a.li(xt_isa::reg::Gpr::A2, iters);
        a.li(xt_isa::reg::Gpr::A3, 1);
        let top = a.here();
        a.amoadd_d(xt_isa::reg::Gpr::A4, xt_isa::reg::Gpr::A3, xt_isa::reg::Gpr::A1);
        a.addi(xt_isa::reg::Gpr::A2, xt_isa::reg::Gpr::A2, -1);
        a.bnez(xt_isa::reg::Gpr::A2, top);
        a.halt();
        a.finish().unwrap()
    };
    let mem = || MemConfig {
        cores: 4,
        ..MemConfig::default()
    };
    let private: Vec<Program> = (0..4u64).map(private_kernel).collect();
    let rp = ClusterSim::new(&private, &CoreConfig::xt910(), mem(), 100_000_000).run();
    let sharing: Vec<Program> = (0..4).map(|_| shared(400)).collect();
    let rs = ClusterSim::new(&sharing, &CoreConfig::xt910(), mem(), 100_000_000).run();
    Figure {
        title: "Snoop filter (4 cores)".into(),
        unit: "snoop probes sent".into(),
        rows: vec![
            Row {
                label: "private sets: filtered".into(),
                value: rp.mem.snoops_filtered as f64,
                paper: None,
            },
            Row {
                label: "private sets: sent".into(),
                value: rp.mem.snoops_sent as f64,
                paper: None,
            },
            Row {
                label: "shared counter: sent".into(),
                value: rs.mem.snoops_sent as f64,
                paper: None,
            },
            Row {
                label: "shared counter: c2c transfers".into(),
                value: rs.mem.c2c_transfers as f64,
                paper: None,
            },
        ],
    }
}

// ---- xt-report multicore section ----

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
    a.finish().unwrap()
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
    a.finish().unwrap()
}

/// One deterministic cell of the report's multicore section. Every
/// field is part of the engine's bit-identical contract, so the JSON
/// these render into is byte-stable across runs and thread counts.
#[derive(Clone, Debug)]
pub struct MulticoreCell {
    /// Workload id (stable, used as the JSON key).
    pub workload: &'static str,
    /// Simulated core count.
    pub cores: usize,
    /// Slowest core's cycle count.
    pub makespan: u64,
    /// Aggregate instructions retired.
    pub instructions: u64,
    /// Aggregate IPC over the makespan.
    pub ipc: f64,
    /// Snoop probes sent by the master hierarchy.
    pub snoops_sent: u64,
    /// Dirty-line cache-to-cache transfers.
    pub c2c_transfers: u64,
}

/// Host-side simulation speed of the parallel engine (wall clock — only
/// measured outside smoke mode, because it is inherently
/// nondeterministic).
#[derive(Clone, Debug)]
pub struct HostSpeed {
    /// Committed guest MIPS with one worker thread.
    pub mips_1_thread: f64,
    /// Committed guest MIPS with four worker threads.
    pub mips_4_threads: f64,
    /// `mips_4_threads / mips_1_thread`.
    pub speedup: f64,
    /// Single-core functional-emulator MIPS with the decoded-block
    /// cache enabled (docs/FASTPATH.md).
    pub emu_mips_fastpath: f64,
    /// Single-core functional-emulator MIPS decoding every step (the
    /// seed interpreter).
    pub emu_mips_slowpath: f64,
    /// `emu_mips_fastpath / emu_mips_slowpath`.
    pub emu_speedup: f64,
}

/// The report's multicore section: deterministic cells plus the
/// optional host-speed measurement.
#[derive(Clone, Debug)]
pub struct MulticoreSection {
    /// STREAM-rate and producer/consumer cells at 1/2/4 cores.
    pub cells: Vec<MulticoreCell>,
    /// Wall-clock engine speed; `None` in smoke mode.
    pub host: Option<HostSpeed>,
}

fn run_cluster(progs: &[Program]) -> ClusterReport {
    let mem = MemConfig {
        cores: progs.len(),
        ..MemConfig::default()
    };
    ClusterSim::new(progs, &CoreConfig::xt910(), mem, 100_000_000).run()
}

fn cell(workload: &'static str, r: &ClusterReport) -> MulticoreCell {
    MulticoreCell {
        workload,
        cores: r.cores.len(),
        makespan: r.makespan(),
        instructions: r.total_instructions(),
        ipc: r.throughput_ipc(),
        snoops_sent: r.mem.snoops_sent,
        c2c_transfers: r.mem.c2c_transfers,
    }
}

/// Builds the producer/consumer program set for `n` cores: pairs share
/// a mailbox; the 1-core row degenerates to a lone producer (the
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

/// Runs the multicore report section. `smoke` shrinks the workloads and
/// skips the (nondeterministic) host-speed measurement so the artifact
/// stays byte-identical run to run.
pub fn report_section(smoke: bool) -> MulticoreSection {
    let kib = if smoke { 32 } else { 256 };
    let items = if smoke { 32 } else { 200 };
    let mut cells = Vec::new();
    for n in [1usize, 2, 4] {
        let progs: Vec<Program> = (0..n as u64).map(|i| stream_core(i, kib, 1)).collect();
        cells.push(cell("stream_rate", &run_cluster(&progs)));
    }
    for n in [1usize, 2, 4] {
        let progs = producer_consumer_progs(n, items);
        let r = run_cluster(&progs);
        for (i, code) in r.exit_codes.iter().enumerate() {
            assert_eq!(
                *code,
                Some(0),
                "producer/consumer core {i} failed its handshake at {n} cores"
            );
        }
        cells.push(cell("producer_consumer", &r));
    }
    let host = if smoke { None } else { Some(host_speed()) };
    MulticoreSection { cells, host }
}

/// Measures the engine's host simulation speed: the same 4-core
/// streaming workload with 1 vs 4 worker threads. The simulated result
/// is bit-identical either way; only the wall clock differs.
pub fn host_speed() -> HostSpeed {
    let build = || {
        let progs: Vec<Program> = (0..4u64).map(|i| stream_core(i, 256, 8)).collect();
        let mem = MemConfig {
            cores: 4,
            ..MemConfig::default()
        };
        ClusterSim::new(&progs, &CoreConfig::xt910(), mem, 100_000_000)
    };
    let mips = |threads: usize| {
        let t0 = std::time::Instant::now();
        let r = build().run_threads(threads);
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        r.total_instructions() as f64 / secs / 1e6
    };
    let mips_1_thread = mips(1);
    let mips_4_threads = mips(4);
    let emu = emu_speed();
    HostSpeed {
        mips_1_thread,
        mips_4_threads,
        speedup: mips_4_threads / mips_1_thread,
        emu_mips_fastpath: emu.fastpath,
        emu_mips_slowpath: emu.slowpath,
        emu_speedup: emu.fastpath / emu.slowpath,
    }
}

/// What [`emu_speed`] measured, in host MIPS.
#[derive(Clone, Copy, Debug)]
pub struct EmuSpeed {
    /// `Emulator::run` with the decoded-block cache.
    pub fastpath: f64,
    /// `Emulator::run` decoding every step (the seed interpreter).
    pub slowpath: f64,
    /// `TraceSource::advance` + `current`, one record at a time — what
    /// every timing model pays before its own work starts.
    pub step_driver: f64,
    /// The same records through an `OooSession`: emulator, out-of-order
    /// core model and memory hierarchy together.
    pub ooo_session: f64,
}

/// The step driver must reach this fraction of `Emulator::run`'s MIPS on
/// the loop below: two thirds of the 0.58 measured after PR 15 built the
/// retired record in place (17 runs, 0.55-0.63). The by-value drain it
/// replaced measured 0.39 of its own `Emulator::run` (10 runs,
/// 0.377-0.405; EXPERIMENTS.md, "Host speed, PR 15"). PR 16 made
/// `Emulator::run` 1.22x faster on this loop and stepping 1.07x, so the
/// ratio now measures 0.51 (20 runs, 0.43-0.53) with both speeds up; the
/// floor stands where PR 15 set it.
pub const STEP_DRIVER_FLOOR: f64 = 0.39;

/// An `OooSession` must reach this fraction of `Emulator::run`'s MIPS on
/// the loop below: two thirds of the 0.166 measured after PR 22 took the
/// loops out of the retirement-ordered windows and inlined the issue-slot
/// limiter (10 runs, 0.146-0.181; 19.1 of about 115 MIPS). The parent
/// measured 0.153 in alternation (9 runs, 0.141-0.176; 17.5 MIPS), and
/// 0.131 when PR 16 set the floor at 0.087 (EXPERIMENTS.md, "Host speed,
/// PR 16" and "PR 22").
pub const OOO_SESSION_FLOOR: f64 = 0.11;

/// Measures the functional emulator's raw host MIPS (docs/FASTPATH.md)
/// on a single-core ALU/branch loop with one load and one store: with
/// the decoded-block cache on and off, drained one borrowed record at a
/// time, and under the out-of-order timing model. Also used by
/// `xt-report --mips-sanity`, the CI guard that the cache never makes
/// the emulator slower, that handing records to a timing model never
/// costs more than [`STEP_DRIVER_FLOOR`] allows, and that the timing
/// model itself stays above [`OOO_SESSION_FLOOR`].
pub fn emu_speed() -> EmuSpeed {
    let mut a = Asm::new();
    let cell = a.data_zeros("cell", 8);
    a.la(Gpr::A1, cell);
    a.li(Gpr::A2, 1_500_000);
    let top = a.here();
    a.ld(Gpr::A3, Gpr::A1, 0);
    a.addi(Gpr::A3, Gpr::A3, 3);
    a.xor_(Gpr::A4, Gpr::A3, Gpr::A2);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.sd(Gpr::A5, Gpr::A1, 0);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.halt();
    let p = a.finish().unwrap();
    let loaded = |fastpath: bool| {
        let mut emu = xt_emu::Emulator::new();
        emu.set_fastpath(fastpath);
        emu.load(&p);
        emu
    };
    let mips = |insts: u64, t0: std::time::Instant| {
        insts as f64 / t0.elapsed().as_secs_f64().max(1e-9) / 1e6
    };
    let run = |fastpath: bool| {
        let mut emu = loaded(fastpath);
        let t0 = std::time::Instant::now();
        emu.run(100_000_000).expect("bench loop halts");
        mips(emu.cpu.instret, t0)
    };
    // the slow path is the reference interpreter: measure it first so
    // the fast number never benefits from a warmer cache hierarchy
    let slowpath = run(false);
    let fastpath = run(true);
    let mut trace = xt_emu::TraceSource::new(loaded(true), 100_000_000);
    let mut taken = 0u64;
    let t0 = std::time::Instant::now();
    while trace.advance() == xt_emu::TraceStatus::Inst {
        taken += trace.current().is_taken_branch() as u64;
    }
    let step_driver = mips(trace.retired(), t0);
    assert!(trace.exit_code.is_some() && taken >= 1_499_999, "bench loop ran");
    let cfg = xt_core::CoreConfig::xt910();
    let mut session = xt_core::OooSession::new(&p, &cfg, 100_000_000);
    let t0 = std::time::Instant::now();
    let report = session.run_to_end();
    let ooo_session = mips(session.retired(), t0);
    assert!(report.exit_code.is_some(), "bench loop ran under OoO");
    EmuSpeed {
        fastpath,
        slowpath,
        step_driver,
        ooo_session,
    }
}

/// What [`cluster_speed`] measured, in host MIPS.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpeed {
    /// Four private-slice kernels under a 4-core `ClusterSim` on one host
    /// thread: every recorded `MemOp` is replayed into the master and
    /// the three peer replicas.
    pub cluster4: f64,
    /// One of the four kernels alone under an `OooSession`.
    pub one_session: f64,
}

/// The 4-core cluster must reach this fraction of one `OooSession`'s MIPS
/// on the private-slice kernel: two thirds of the 0.65 measured after
/// PR 20 stopped a replayed `MemOp` recomputing its core's TLB and
/// stream-table outcome and took the statistics-only observers out of
/// the replicas (13 runs, 0.61-0.74; 6.8 of 10.4 MIPS; the parent 0.52,
/// EXPERIMENTS.md, "Host speed, PR 20"). Re-measured after PR 22 made
/// `OooCore::step` cheaper on both sides of the ratio: 0.642 (10 runs,
/// 0.56-0.73; 8.8 of 14.1 MIPS) against the parent's 0.645 (9 runs,
/// 0.62-0.67; 8.4 of 12.7) — two thirds is still 0.43.
pub const CLUSTER4_FLOOR: f64 = 0.43;

/// One core's private STREAM slice: `b[i] = a[0] + ... + a[i]` over 12 Ki
/// 8-byte elements in the core's own 16 MiB region.
fn slice_core(id: u64) -> Program {
    const ELEMS: u64 = 12 * 1024;
    let init: Vec<u64> = (0..ELEMS).map(|k| (k * 7 + id) % 13).collect();
    let mut a = Asm::new().with_data_base(0x8200_0000 + id * 0x0100_0000);
    let src = a.data_u64("a", &init);
    let dst = a.data_zeros("b", (ELEMS * 8) as usize);
    a.la(Gpr::A1, src);
    a.la(Gpr::A2, dst);
    a.li(Gpr::A3, ELEMS as i64);
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0);
    a.add(Gpr::A0, Gpr::A0, Gpr::A4);
    a.sd(Gpr::A0, Gpr::A2, 0);
    a.addi(Gpr::A1, Gpr::A1, 8);
    a.addi(Gpr::A2, Gpr::A2, 8);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.halt();
    a.finish().unwrap()
}

/// Measures what the cluster engine costs per guest instruction against
/// the same models without it: the private-slice kernel on all four
/// cores of a `ClusterSim` at one host thread, and on one `OooSession`.
/// Construction is outside the clock; each side runs six times.
/// Used by `xt-report --mips-sanity` ([`CLUSTER4_FLOOR`]).
pub fn cluster_speed() -> ClusterSpeed {
    const REPS: u32 = 6;
    let cfg = CoreConfig::xt910();
    let progs: Vec<Program> = (0..4).map(slice_core).collect();
    let mem = MemConfig {
        cores: 4,
        ..MemConfig::default()
    };
    let (mut insts, mut secs) = ([0u64; 2], [0f64; 2]);
    for _ in 0..REPS {
        let sim = ClusterSim::new(&progs, &cfg, mem, 100_000_000);
        let t0 = std::time::Instant::now();
        let r = sim.run_threads(1);
        secs[0] += t0.elapsed().as_secs_f64();
        insts[0] += r.total_instructions();
        assert!(
            r.exit_codes.iter().all(|c| c.is_some()),
            "slices ran in the cluster"
        );

        let mut session = xt_core::OooSession::new(&progs[0], &cfg, 100_000_000);
        let t0 = std::time::Instant::now();
        let r = session.run_to_end();
        secs[1] += t0.elapsed().as_secs_f64();
        insts[1] += session.retired();
        assert!(r.exit_code.is_some(), "slice ran alone");
    }
    let mips = |k: usize| insts[k] as f64 / secs[k].max(1e-9) / 1e6;
    ClusterSpeed {
        cluster4: mips(0),
        one_session: mips(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_meaningful() {
        let f = scaling();
        let s4 = f.rows.last().unwrap().value;
        assert!(s4 > 2.0, "4 cores should scale well past 2x: {s4:.2}");
    }

    #[test]
    fn multicore_section_is_deterministic() {
        let a = report_section(true);
        let b = report_section(true);
        assert_eq!(a.cells.len(), 6, "stream + producer/consumer at 1/2/4");
        assert!(a.host.is_none(), "smoke mode skips wall-clock numbers");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.makespan, cb.makespan, "{}", ca.workload);
            assert_eq!(ca.instructions, cb.instructions);
            assert_eq!(ca.snoops_sent, cb.snoops_sent);
            assert_eq!(ca.c2c_transfers, cb.c2c_transfers);
        }
    }

    #[test]
    fn producer_consumer_contends_more_than_stream() {
        let s = report_section(true);
        let pc4 = s
            .cells
            .iter()
            .find(|c| c.workload == "producer_consumer" && c.cores == 4)
            .unwrap();
        let st4 = s
            .cells
            .iter()
            .find(|c| c.workload == "stream_rate" && c.cores == 4)
            .unwrap();
        assert!(
            pc4.c2c_transfers > st4.c2c_transfers,
            "mailbox handoffs move dirty lines core to core"
        );
    }
}
