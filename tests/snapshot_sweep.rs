//! A re-sealed corruption sweep over the snapshot decoder: one byte of a
//! frame's payload set to another value, the frame sealed again with a
//! correct checksum — so only the layout stands between the bytes and the
//! simulator — and restored into a fresh instance. Every restore must
//! return `Ok` or a typed [`SnapshotError`], never panic.
//!
//! Positions and values come from a seeded [`Rng`]; a failure prints the
//! position, the byte and the seed, and `XT_HARNESS_SEED=<seed>` replays
//! the sweep. The frames are small on purpose (the smallest legal caches,
//! a short cut) so that two thousand restores stay within a few seconds
//! in a debug build.
//!
//! [`SnapshotError`]: xt_snapshot::SnapshotError

use std::panic::{catch_unwind, AssertUnwindSafe};
use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooSession};
use xt_harness::prop::Config;
use xt_harness::rng::Rng;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_snapshot::{SnapshotError, KIND_CLUSTER, KIND_CORE};
use xt_soc::ClusterSim;
use xt_workloads::sched;

const MAX_INSTS: u64 = 1_000_000;

/// The smallest caches the configuration space allows, in 256-byte
/// lines: a quarter of the line arrays that dominate a frame.
fn small_mem(cores: usize) -> MemConfig {
    MemConfig {
        cores,
        l1i_kib: 32,
        l1d_kib: 32,
        l2_kib: 256,
        l2_ways: 8,
        jtlb_sets: 16,
        line_bytes: 256,
        ..MemConfig::default()
    }
}

/// Loads, stores and data-dependent branches over a small buffer.
fn busy_prog() -> Program {
    let mut a = Asm::new();
    let buf = a.data_zeros("buf", 4096);
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, 400);
    a.li(Gpr::A3, 7);
    let top = a.here();
    let skip = a.new_label();
    a.slli(Gpr::A4, Gpr::A3, 5);
    a.xor_(Gpr::A3, Gpr::A3, Gpr::A4);
    a.srli(Gpr::A4, Gpr::A3, 7);
    a.xor_(Gpr::A3, Gpr::A3, Gpr::A4);
    a.andi(Gpr::A4, Gpr::A3, 0x7f8);
    a.add(Gpr::A4, Gpr::A4, Gpr::A1);
    a.andi(Gpr::A5, Gpr::A3, 1);
    a.beqz(Gpr::A5, skip);
    a.sd(Gpr::A3, Gpr::A4, 0);
    a.bind(skip).unwrap();
    a.ld(Gpr::A6, Gpr::A4, 0);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.li(Gpr::A0, 7);
    a.halt();
    a.finish().unwrap()
}

fn core_session(prog: &Program) -> OooSession {
    OooSession::with_mem(prog, &CoreConfig::xt910(), small_mem(1), MAX_INSTS)
}

fn cluster(progs: &[Program]) -> ClusterSim {
    ClusterSim::new(progs, &CoreConfig::xt910(), small_mem(2), MAX_INSTS)
        .with_epoch(512)
        .with_interrupts()
        .with_timeline()
        .with_mem_tracing()
}

/// Sets `samples` seeded payload positions of `frame` to another value,
/// re-seals each, and hands it to `restore`; panics (with a replay line)
/// if a restore panics. Returns how many forged frames restored `Ok`.
fn sweep(
    name: &str,
    frame: &[u8],
    kind: u8,
    samples: usize,
    stream: u64,
    restore: impl Fn(&[u8]) -> Result<(), SnapshotError>,
) -> usize {
    let seed = Config::seeded(0x0910_0026_0001).seed;
    let mut rng = Rng::new(seed).fork(stream);
    let mut payload = xt_snapshot::open(frame, kind)
        .expect("the frame opens")
        .to_vec();
    let mut restored = 0;
    for _ in 0..samples {
        let at = rng.below(payload.len() as u64) as usize;
        let was = payload[at];
        let set = was ^ (1 + rng.below(255) as u8);
        payload[at] = set;
        let forged = xt_snapshot::seal(kind, &payload);
        payload[at] = was;
        match catch_unwind(AssertUnwindSafe(|| restore(&forged))) {
            Ok(Ok(())) => restored += 1,
            Ok(Err(_)) => {}
            Err(_) => panic!(
                "{name}: payload byte {at} set {was:#04x} -> {set:#04x} panicked the \
                 decoder (replay: XT_HARNESS_SEED={seed:#x} cargo test --test snapshot_sweep)"
            ),
        }
    }
    restored
}

#[test]
fn forged_core_frames_restore_or_fail_typed() {
    let prog = busy_prog();
    let mut s = core_session(&prog);
    s.attach_tracer();
    s.mem_mut().start_tracing();
    s.run_insts(300);
    let frame = s.save();
    let restored = sweep("core frame", &frame, KIND_CORE, 1_200, 1, |bytes| {
        core_session(&prog).restore(bytes)
    });
    assert!(
        restored > 0,
        "most bytes are plain data: some forgeries restore"
    );
}

#[test]
fn forged_cluster_frames_restore_or_fail_typed() {
    let progs = sched::cluster_programs(2);
    let mut sim = cluster(&progs);
    sim.step_epochs(2, 1);
    assert!(!sim.finished(), "cut mid-run, with resync logs pending");
    let frame = sim.save();
    let restored = sweep("cluster frame", &frame, KIND_CLUSTER, 800, 2, |bytes| {
        cluster(&progs).restore(bytes)
    });
    assert!(
        restored > 0,
        "most bytes are plain data: some forgeries restore"
    );
}
