//! Resume-identity matrix for the snapshot subsystem (docs/SNAPSHOT.md).
//!
//! Every test follows the same differential: run a workload straight
//! through (reference), then run it again but cut it at some point,
//! [`save`] the frame, [`restore`] it into a *fresh* instance built
//! from the same program and configuration, continue there, and require
//! bit-identical results — perf counters, memory-system statistics,
//! exit codes, Konata trace bytes, and xt-stat interval series.
//!
//! The matrix covers: single-core sessions under the vector kernels,
//! snapshots taken under the decoded-block fast path and restored into
//! a slow-path engine (and vice versa), 1/2/4-core clusters resumed
//! under different host thread counts, the interrupt-driven supervisor
//! scheduler workload, and traced runs.
//!
//! [`save`]: xt_core::OooSession::save
//! [`restore`]: xt_core::OooSession::restore

use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooCore, OooSession, Session};
use xt_emu::{Emulator, TraceSource};
use xt_isa::reg::Gpr;
use xt_mem::{MemConfig, MemSystem};
use xt_perf::Sampler;
use xt_soc::{ClusterReport, ClusterSim};
use xt_workloads::{sched, vecbench};
use xt_compiler::CompileOpts;

const MAX_INSTS: u64 = 10_000_000;

fn mem_cfg(cores: usize) -> MemConfig {
    MemConfig {
        cores,
        ..MemConfig::default()
    }
}

/// A session over `prog` with the decoded-block fast path forced on or
/// off (the env-independent constructor the matrix needs).
fn session_fastpath(prog: &Program, fastpath: bool) -> OooSession {
    let cfg = CoreConfig::xt910();
    let mut emu = Emulator::new();
    emu.set_fastpath(fastpath);
    emu.load(prog);
    Session::from_parts(
        TraceSource::new(emu, MAX_INSTS),
        OooCore::new(cfg.clone(), 0),
        MemSystem::new(cfg.mem),
    )
}

/// A session assembled from parts is the session `new` builds.
#[test]
fn from_parts_equals_new() {
    let k = vecbench::dot(&CompileOpts::vector_tuned());
    let by_hand = session_fastpath(&k.program, true).run_to_end();
    let built = OooSession::new(&k.program, &CoreConfig::xt910(), MAX_INSTS).run_to_end();
    assert_eq!(by_hand.perf, built.perf);
    assert_eq!(by_hand.mem, built.mem);
    assert_eq!(built.exit_code, k.expected);
}

/// Cut `prog` at `cut` instructions under `fp_save`, restore into a
/// fresh `fp_resume` session, and require the continuation to match the
/// uninterrupted reference exactly.
fn assert_resume_identical(prog: &Program, cut: u64, fp_save: bool, fp_resume: bool) {
    let mut whole = session_fastpath(prog, true);
    let reference = whole.run_to_end();

    let mut first = session_fastpath(prog, fp_save);
    first.run_insts(cut);
    let snap = first.save();

    let mut resumed = session_fastpath(prog, fp_resume);
    resumed.restore(&snap).expect("restore succeeds");
    assert_eq!(resumed.save(), snap, "save∘restore∘save byte-equal");

    let report = resumed.run_to_end();
    let label = format!("cut {cut}, fastpath {fp_save}->{fp_resume}");
    assert_eq!(report.perf, reference.perf, "{label}: perf counters");
    assert_eq!(report.mem, reference.mem, "{label}: memory stats");
    assert_eq!(report.exit_code, reference.exit_code, "{label}: exit code");
}

/// Vector kernels resumed mid-run, including across fast-path settings:
/// the decoded-block cache is engine configuration, not architectural
/// state, so a frame saved under one setting must resume under the
/// other (docs/FASTPATH.md).
#[test]
fn vector_kernels_resume_across_fastpath_settings() {
    let kernels = vecbench::all(&CompileOpts::vector_tuned());
    for k in &kernels {
        for (fp_save, fp_resume) in [(true, true), (false, false), (true, false), (false, true)] {
            assert_resume_identical(&k.program, 1000, fp_save, fp_resume);
        }
    }
}

/// Sweeping the cut point across a single kernel, including cut 0
/// (snapshot before the first instruction) and a cut beyond the end of
/// the run (snapshot of a finished trace).
#[test]
fn cut_point_sweep_on_one_kernel() {
    let k = vecbench::dot(&CompileOpts::vector_tuned());
    for cut in [0, 1, 17, 4096, u64::MAX] {
        let cut = cut.min(MAX_INSTS);
        assert_resume_identical(&k.program, cut, true, true);
    }
}

/// Dense sweep over an LR/SC retry loop: the load-reservation is the
/// classic hidden-state trap (a frame that dropped it would make the
/// first resumed SC fail and retire a different path), so cut at
/// *every* instruction of the run and require identity each time.
#[test]
fn dense_cut_sweep_preserves_lr_reservation() {
    let mut a = Asm::new();
    let cell = a.data_u64("cell", &[5]);
    a.la(Gpr::A1, cell);
    a.li(Gpr::A2, 30);
    let top = a.here();
    a.lr_d(Gpr::A4, Gpr::A1);
    a.addi(Gpr::A4, Gpr::A4, 3);
    a.sc_d(Gpr::A5, Gpr::A4, Gpr::A1);
    a.bnez(Gpr::A5, top);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.ld(Gpr::A0, Gpr::A1, 0);
    a.halt();
    let prog = a.finish().unwrap();

    let mut whole = session_fastpath(&prog, true);
    let reference = whole.run_to_end();
    assert_eq!(reference.exit_code, Some(95), "5 + 30*3");
    let retired = whole.retired();

    for cut in 0..=retired {
        let mut first = session_fastpath(&prog, true);
        first.run_insts(cut);
        let snap = first.save();
        let mut resumed = session_fastpath(&prog, true);
        resumed.restore(&snap).expect("restore");
        let report = resumed.run_to_end();
        assert_eq!(report.perf, reference.perf, "cut at {cut}/{retired}");
        assert_eq!(report.exit_code, reference.exit_code, "cut at {cut}");
    }
}

/// Issue-queue pressure: a serial divide chain whose consumers wait in
/// the queue until it fills, interleaved with independent adds that
/// leave at once. The queue's release cycles therefore arrive out of
/// order (every other window releases in retirement order), and a cut
/// after any such add lands in a frame holding them. Cut at every
/// instruction of a few steady-state iterations.
#[test]
fn iq_pressure_kernel_resumes_with_out_of_order_releases() {
    let mut a = Asm::new();
    a.li(Gpr::A2, 60);
    a.li(Gpr::A4, i64::MAX);
    a.li(Gpr::A5, 3);
    let top = a.here();
    a.div(Gpr::A4, Gpr::A4, Gpr::A5);
    for _ in 0..4 {
        a.add(Gpr::A6, Gpr::A6, Gpr::A4); // waits for the divide
        a.addi(Gpr::A7, Gpr::A7, 1); // independent: completes first
    }
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.andi(Gpr::A0, Gpr::A7, 0xff);
    a.halt();
    let prog = a.finish().unwrap();

    let mut whole = session_fastpath(&prog, true);
    let reference = whole.run_to_end();
    assert_eq!(reference.exit_code, Some(240), "4 independent adds x 60");
    assert!(
        reference.perf.iq_stall_cycles() > 0,
        "kernel must fill the issue queue"
    );
    for cut in 330..375 {
        assert_resume_identical(&prog, cut, true, true);
    }
}

// ---------------------------------------------------------------------
// cluster matrix
// ---------------------------------------------------------------------

/// A small contended multi-core workload: core 0 streams privately,
/// the rest hammer one shared atomic counter.
fn cluster_progs(n: usize) -> Vec<Program> {
    let mut progs = Vec::new();
    for i in 0..n {
        if i == 0 {
            // private streaming sum in its own data region
            let mut a = Asm::new().with_data_base(0x8300_0000);
            let buf = a.data_zeros("buf", 4096);
            a.la(Gpr::A1, buf);
            a.li(Gpr::A2, 512);
            let top = a.here();
            a.ld(Gpr::A4, Gpr::A1, 0);
            a.add(Gpr::A5, Gpr::A5, Gpr::A4);
            a.addi(Gpr::A1, Gpr::A1, 8);
            a.addi(Gpr::A2, Gpr::A2, -1);
            a.bnez(Gpr::A2, top);
            a.mv(Gpr::A0, Gpr::A5);
            a.halt();
            progs.push(a.finish().unwrap());
        } else {
            // all contending cores share the default data base, so
            // `cell` is one contended line
            let mut a = Asm::new();
            let cell = a.data_u64("cell", &[0]);
            a.la(Gpr::A1, cell);
            a.li(Gpr::A2, 200);
            a.li(Gpr::A3, 1);
            let top = a.here();
            a.amoadd_d(Gpr::A4, Gpr::A3, Gpr::A1);
            a.addi(Gpr::A2, Gpr::A2, -1);
            a.bnez(Gpr::A2, top);
            a.mv(Gpr::A0, Gpr::A4);
            a.halt();
            progs.push(a.finish().unwrap());
        }
    }
    progs
}

fn build_cluster(progs: &[Program], tracers: bool) -> ClusterSim {
    let sim = ClusterSim::new(
        progs,
        &CoreConfig::xt910(),
        mem_cfg(progs.len()),
        MAX_INSTS,
    )
    .with_epoch(512);
    if tracers {
        sim.with_tracers()
    } else {
        sim
    }
}

fn assert_cluster_identical(a: &ClusterReport, b: &ClusterReport, what: &str) {
    assert_eq!(a.cores, b.cores, "{what}: per-core perf counters");
    assert_eq!(a.mem, b.mem, "{what}: memory stats");
    assert_eq!(a.exit_codes, b.exit_codes, "{what}: exit codes");
    assert_eq!(a.konata, b.konata, "{what}: Konata trace bytes");
}

/// 1-, 2-, and 4-core clusters cut after a few epochs and resumed in a
/// fresh instance under both 1 and 4 host threads. Includes pipeline
/// tracers so the Konata byte streams cross the snapshot boundary too.
#[test]
fn clusters_resume_identically_across_thread_counts() {
    for n in [1usize, 2, 4] {
        let progs = cluster_progs(n);
        let reference = build_cluster(&progs, true).run_threads(1);

        for resume_threads in [1usize, 4] {
            let mut first = build_cluster(&progs, true);
            first.step_epochs(3, 1);
            let snap = first.save();

            let mut resumed = build_cluster(&progs, true);
            resumed.restore(&snap).expect("cluster restore succeeds");
            assert_eq!(resumed.save(), snap, "cluster save∘restore∘save");

            while !resumed.step_epochs(1, resume_threads) {}
            let report = resumed.into_report();
            assert_cluster_identical(
                &reference,
                &report,
                &format!("{n} cores, resumed at {resume_threads} threads"),
            );
        }
    }
}

/// An end-state snapshot (taken after the cluster finished) restores
/// and reports identically.
#[test]
fn finished_cluster_snapshot_restores() {
    let progs = cluster_progs(2);
    let reference = build_cluster(&progs, false).run_threads(1);

    let mut first = build_cluster(&progs, false);
    while !first.step_epochs(1, 1) {}
    assert!(first.finished());
    let snap = first.save();

    let mut resumed = build_cluster(&progs, false);
    resumed.restore(&snap).expect("restore of finished run");
    assert!(resumed.finished(), "finished flag survives the frame");
    let report = resumed.into_report();
    assert_cluster_identical(&reference, &report, "end-state snapshot");
}

/// The interrupt-driven supervisor scheduler (CLINT timer + MSIP IPIs
/// over the MMIO bus) resumed mid-run: device state — mtimecmp, MSIP
/// bits, claimed PLIC sources, UART bytes — crosses the frame.
#[test]
fn interrupt_scheduler_cluster_resumes() {
    for n in [1usize, 2] {
        let progs = sched::cluster_programs(n);
        let build = || {
            ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg(n), MAX_INSTS)
                .with_epoch(2048)
                .with_interrupts()
        };
        let reference = build().run_threads(1);
        assert_eq!(
            reference.exit_codes,
            vec![Some(sched::EXIT_OK); n],
            "scheduler workload completes on {n} hart(s)"
        );

        for cut_epochs in [1u64, 4] {
            let mut first = build();
            first.step_epochs(cut_epochs, 1);
            let snap = first.save();

            let mut resumed = build();
            resumed.restore(&snap).expect("interrupt cluster restore");
            assert_eq!(resumed.save(), snap, "interrupt cluster re-save");

            while !resumed.step_epochs(1, 2) {}
            let report = resumed.into_report();
            assert_cluster_identical(
                &reference,
                &report,
                &format!("{n}-hart sched cluster cut at epoch {cut_epochs}"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// xt-stat interval series
// ---------------------------------------------------------------------

/// Drives a session with a [`Sampler`] attached, optionally cutting at
/// `cut` instructions: the sampler rides the same snapshot frame
/// discipline (its own payload alongside the session's), and the final
/// interval series must be identical to an uninterrupted run's.
fn sampled_series(prog: &Program, interval: u64, cut: Option<u64>) -> xt_perf::TimeSeries {
    let cfg = CoreConfig::xt910();
    let mut s = OooSession::new(prog, &cfg, MAX_INSTS);
    let mut sampler = Sampler::new(0, interval);
    let mut stepped: u64 = 0;
    loop {
        if !s.step() {
            break;
        }
        stepped += 1;
        if sampler.due(s.cycles()) {
            sampler.observe(s.cycles(), s.core().perf(), &s.mem().stats());
        }
        if cut == Some(stepped) {
            let session_frame = s.save();
            let mut e = xt_snapshot::Enc::new();
            xt_snapshot::SnapshotState::save(&sampler, &mut e);
            let sampler_frame = e.into_bytes();

            s = OooSession::new(prog, &cfg, MAX_INSTS);
            s.restore(&session_frame).expect("session restore");
            sampler = Sampler::new(0, interval);
            let mut d = xt_snapshot::Dec::new(&sampler_frame);
            xt_snapshot::SnapshotState::restore(&mut sampler, &mut d).expect("sampler restore");
            d.finish().expect("sampler frame fully consumed");
        }
    }
    let report = s.finish_report();
    sampler.finish(report.perf.cycles, &report.perf, &report.mem)
}

/// Measurement harness behind the docs/SNAPSHOT.md size/latency table
/// (not a correctness gate). Reproduce with:
///
/// ```sh
/// cargo test --release --test snapshot_resume -- --ignored --nocapture measure
/// ```
#[test]
#[ignore = "measurement harness for docs/SNAPSHOT.md, not a gate"]
fn measure_snapshot_size_and_latency() {
    use std::time::Instant;
    const REPS: u32 = 50;

    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();

    // single-core session mid-kernel
    let k = vecbench::saxpy(&CompileOpts::vector_tuned());
    let mut s = OooSession::new(&k.program, &CoreConfig::xt910(), MAX_INSTS);
    s.run_insts(5000);
    let snap = s.save();
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(s.save());
    }
    let save_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let mut fresh = OooSession::new(&k.program, &CoreConfig::xt910(), MAX_INSTS);
    let t0 = Instant::now();
    for _ in 0..REPS {
        fresh.restore(&snap).unwrap();
    }
    let restore_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    rows.push(("1-core session (saxpy)".into(), snap.len(), save_us, restore_us));

    // 4-core cluster mid-run
    let progs = cluster_progs(4);
    let mut sim = build_cluster(&progs, false);
    sim.step_epochs(3, 1);
    let snap = sim.save();
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(sim.save());
    }
    let save_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let mut fresh = build_cluster(&progs, false);
    let t0 = Instant::now();
    for _ in 0..REPS {
        fresh.restore(&snap).unwrap();
    }
    let restore_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    rows.push(("4-core cluster".into(), snap.len(), save_us, restore_us));

    // 2-hart interrupt scheduler cluster mid-run
    let progs = sched::cluster_programs(2);
    let build = || {
        ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg(2), MAX_INSTS)
            .with_epoch(2048)
            .with_interrupts()
    };
    let mut sim = build();
    sim.step_epochs(2, 1);
    let snap = sim.save();
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(sim.save());
    }
    let save_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let mut fresh = build();
    let t0 = Instant::now();
    for _ in 0..REPS {
        fresh.restore(&snap).unwrap();
    }
    let restore_us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    rows.push(("2-hart sched + MMIO".into(), snap.len(), save_us, restore_us));

    println!("| instance | frame bytes | save µs | restore µs |");
    println!("|---|---:|---:|---:|");
    for (what, bytes, s_us, r_us) in &rows {
        println!("| {what} | {bytes} | {s_us:.0} | {r_us:.0} |");
    }
}

/// The xt-stat interval time-series is identical whether or not the run
/// was cut by a snapshot mid-way — including an interval boundary
/// landing exactly on the cut.
#[test]
fn sampler_series_identical_across_resume() {
    let k = vecbench::saxpy(&CompileOpts::vector_tuned());
    let reference = sampled_series(&k.program, 1000, None);
    assert!(
        reference.samples.len() > 2,
        "workload spans several intervals"
    );
    for cut in [500u64, 1000, 1777] {
        let resumed = sampled_series(&k.program, 1000, Some(cut));
        assert_eq!(reference, resumed, "series with cut at {cut}");
    }
}
