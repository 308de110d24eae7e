//! Byte pins for the snapshot frames `tests/fixtures/golden.xtsnap` does
//! not reach, plus the proof that encoding a running simulation leaves it
//! untouched.
//!
//! `golden.xtsnap` is a mid-run `OooSession`: it reaches 27 of the 37
//! `SnapshotState` impls, but no tracer, no device, no cluster and no
//! sampler. Each frame below is cut from a fixed run and pinned as
//! `(length, FNV-1a)` in `tests/fixtures/snapshot_frames.txt`, and each
//! must restore into a fresh instance and re-save to the same bytes. A
//! change to any of these encodings fails here exactly as a change to the
//! golden frame fails `snapshot_golden`: bump `xt_snapshot::VERSION`
//! (docs/SNAPSHOT.md) and re-bless with
//!
//! ```sh
//! XT_BLESS=1 cargo test --test snapshot_frames
//! ```
//!
//! Which frame reaches which impl:
//!
//! | impl | frame |
//! |---|---|
//! | `TraceSource`, `Emulator`, `Cpu`, `GuestMem` | golden, every frame below |
//! | `Pmp` | golden (no region); `pmp_emulator` (three regions) |
//! | `OooCore`, `Lsu`, `Window`, `RetireWindow`, `SlotLimiter` | golden, `sched_cluster`, `pmp_emulator` |
//! | `FrontEnd`, `DirectionPredictor`, `L0Btb`, `L1Btb`, `IndirectPredictor`, `ReturnStack`, `LoopBuffer` | golden, every session and cluster frame |
//! | `Bandwidth`, `PipeGroup`, `PerfCounters` | golden, every session and cluster frame |
//! | `MemSystem`, `Cache`, `Tlb`, `Prefetcher`, `Dram`, `MemStats`, `MissClassifier` | golden, every session and cluster frame |
//! | `InOrderCore`, `TraceBuffer` (records and flushes) | `inorder_traced` |
//! | `MemTracer` (the memory-event codec) | `inorder_traced`, `sched_cluster` (the master) |
//! | `ClusterCtl`, `MmioBus`, `Clint`, `Plic`, `Uart`, `EpochTimeline` | `sched_cluster` |
//! | the recorded `MemOp` log and its `Front` | `sched_cluster` (replica recorders, pending resync logs) |
//! | `Sampler` (with its perf and memory deltas) | `sampler` |

use std::collections::BTreeMap;
use xt_asm::{Asm, Program};
use xt_compiler::CompileOpts;
use xt_core::session::CoreModel;
use xt_core::{CoreConfig, InOrderSession, OooCore, OooSession, Session};
use xt_emu::pmp::{PmpPerms, PmpRegion};
use xt_emu::{Emulator, TraceSource};
use xt_isa::reg::Gpr;
use xt_mem::{MemConfig, MemSystem};
use xt_perf::Sampler;
use xt_snapshot::SnapshotState;
use xt_soc::ClusterSim;
use xt_workloads::{sched, vecbench};

const PINS: &str = "tests/fixtures/snapshot_frames.txt";
const MAX_INSTS: u64 = 10_000_000;

fn pins_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(PINS)
}

/// `name length fnv1a` per line, as blessed.
fn pinned() -> BTreeMap<String, (usize, u64)> {
    let text = std::fs::read_to_string(pins_path()).expect(
        "tests/fixtures/snapshot_frames.txt missing — regenerate with \
         XT_BLESS=1 cargo test --test snapshot_frames",
    );
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let hash = u64::from_str_radix(f[2].trim_start_matches("0x"), 16).expect("hex hash");
            (f[0].to_string(), (f[1].parse().expect("length"), hash))
        })
        .collect()
}

/// Every pinned frame, built from scratch.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("inorder_traced", inorder_traced().save()),
        ("sched_cluster", sched_cluster(true).save()),
        ("sampler", sampler_frame(&mut sampled_session().1)),
        ("pmp_emulator", pmp_session(true).save()),
    ]
}

#[test]
fn frames_match_their_pins() {
    let frames = frames();
    if xt_harness::blessing() {
        let text: String = frames
            .iter()
            .map(|(name, f)| format!("{name} {} {:#018x}\n", f.len(), xt_snapshot::fnv1a(f)))
            .collect();
        std::fs::write(pins_path(), text).expect("write pins");
        eprintln!("blessed {PINS}");
        return;
    }
    let pins = pinned();
    assert_eq!(pins.len(), frames.len(), "one pin per frame");
    for (name, f) in &frames {
        let got = (f.len(), xt_snapshot::fnv1a(f));
        assert_eq!(
            Some(&got),
            pins.get(*name),
            "frame {name} moved — a SnapshotState encoding changed; bump \
             xt_snapshot::VERSION and re-bless (docs/SNAPSHOT.md)"
        );
    }
}

// ---- the frames ----------------------------------------------------

/// Loads and stores over a small buffer steered by an LCG's low bit, so
/// the direction predictor mispredicts (flush events) and the hierarchy
/// sees fills, evictions and writebacks.
fn branchy_prog() -> Program {
    let mut a = Asm::new();
    let buf = a.data_zeros("buf", 16 * 1024);
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, 1500);
    a.li(Gpr::A3, 12345);
    a.li(Gpr::A6, 1_103_515_245);
    let top = a.here();
    let skip = a.new_label();
    a.mul(Gpr::A3, Gpr::A3, Gpr::A6);
    a.addi(Gpr::A3, Gpr::A3, 1013);
    a.srli(Gpr::A4, Gpr::A3, 16);
    a.andi(Gpr::A5, Gpr::A4, 1);
    a.andi(Gpr::A4, Gpr::A4, 0x7f8);
    a.slli(Gpr::A4, Gpr::A4, 3);
    a.add(Gpr::A4, Gpr::A4, Gpr::A1);
    a.beqz(Gpr::A5, skip);
    a.sd(Gpr::A3, Gpr::A4, 0);
    a.bind(skip).unwrap();
    a.ld(Gpr::A7, Gpr::A4, 0);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.andi(Gpr::A0, Gpr::A7, 0xff);
    a.halt();
    a.finish().unwrap()
}

/// The in-order baseline with a pipeline tracer and a memory-event
/// tracer attached, cut mid-run.
fn inorder_traced() -> InOrderSession {
    let mut s = InOrderSession::new(&branchy_prog(), &CoreConfig::u74_like(), MAX_INSTS);
    s.attach_tracer();
    s.mem_mut().start_tracing();
    s.run_insts(6_000);
    s
}

/// The interrupt-driven scheduler on two harts with the device bus, the
/// epoch timeline and the master's memory-event tracer, cut at an epoch
/// boundary: the slots' resync logs are pending. `fastpath` picks the
/// engine.
fn sched_cluster(fastpath: bool) -> ClusterSim {
    let progs = sched::cluster_programs(2);
    let mem_cfg = MemConfig {
        cores: 2,
        ..MemConfig::default()
    };
    let mut sim = ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS)
        .with_epoch(2048)
        .with_interrupts()
        .with_timeline()
        .with_mem_tracing()
        .with_fastpath(fastpath);
    sim.step_epochs(3, 1);
    assert!(!sim.finished(), "cut mid-run, with resync logs pending");
    sim
}

/// A session and the sampler watching it, cut mid-run.
fn sampled_session() -> (OooSession, Sampler) {
    let k = vecbench::saxpy(&CompileOpts::vector_tuned());
    let mut s = OooSession::new(&k.program, &CoreConfig::xt910(), MAX_INSTS);
    let mut sampler = Sampler::new(0, 500);
    for _ in 0..3_000 {
        assert!(s.step(), "the kernel outlasts the cut");
        if sampler.due(s.cycles()) {
            sampler.observe(s.cycles(), s.core().perf(), &s.mem().stats());
        }
    }
    (s, sampler)
}

fn sampler_frame(sampler: &mut Sampler) -> Vec<u8> {
    let mut e = xt_snapshot::Enc::new();
    sampler.save(&mut e);
    e.into_bytes()
}

/// A session whose emulator has three PMP regions, one locked.
/// `fastpath` picks the engine.
fn pmp_session(fastpath: bool) -> OooSession {
    let mut emu = Emulator::new();
    emu.set_fastpath(fastpath);
    emu.load(&branchy_prog());
    let locked = PmpPerms {
        locked: true,
        ..PmpPerms::rx()
    };
    for (start, end, perms) in [
        (0x1000, 0x2000, locked),
        (0x8000_0000, 0x9000_0000, PmpPerms::rwx()),
        (0x4000_0000, 0x4000_1000, PmpPerms::rx()),
    ] {
        emu.pmp.add(PmpRegion { start, end, perms }).unwrap();
    }
    let mut s = plain_session(emu);
    s.run_insts(2_000);
    s
}

fn plain_session(emu: Emulator) -> OooSession {
    let cfg = CoreConfig::xt910();
    Session::from_parts(
        TraceSource::new(emu, MAX_INSTS),
        OooCore::new(cfg.clone(), 0),
        MemSystem::new(cfg.mem),
    )
}

// ---- each frame restores and re-saves to itself ---------------------

#[test]
fn pinned_frames_restore_to_themselves() {
    let frame = inorder_traced().save();
    let mut s = InOrderSession::new(&branchy_prog(), &CoreConfig::u74_like(), MAX_INSTS);
    s.restore(&frame).expect("in-order frame restores");
    assert_eq!(s.save(), frame, "in-order save∘restore∘save");

    let frame = sched_cluster(true).save();
    let progs = sched::cluster_programs(2);
    let mem_cfg = MemConfig {
        cores: 2,
        ..MemConfig::default()
    };
    let mut sim = ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS)
        .with_interrupts()
        .with_timeline()
        .with_mem_tracing();
    sim.restore(&frame).expect("cluster frame restores");
    assert_eq!(sim.save(), frame, "cluster save∘restore∘save");

    let frame = sampler_frame(&mut sampled_session().1);
    let mut sampler = Sampler::new(0, 500);
    let mut d = xt_snapshot::Dec::new(&frame);
    sampler.restore(&mut d).expect("sampler frame restores");
    d.finish().expect("sampler frame fully consumed");
    assert_eq!(sampler_frame(&mut sampler), frame, "sampler save∘restore∘save");

    let frame = pmp_session(true).save();
    let mut emu = Emulator::new();
    emu.load(&branchy_prog());
    let mut s = plain_session(emu);
    s.restore(&frame).expect("PMP frame restores");
    assert_eq!(s.save(), frame, "PMP save∘restore∘save");
}

/// The reference interpreter cuts the same emulator-bearing frames: a
/// frame holds nothing of the engine.
#[test]
fn the_reference_engine_cuts_the_same_frames() {
    assert!(
        sched_cluster(false).save() == sched_cluster(true).save(),
        "sched_cluster differs between engines"
    );
    assert!(
        pmp_session(false).save() == pmp_session(true).save(),
        "pmp_emulator differs between engines"
    );
}

// ---- encoding is read-only -------------------------------------------

/// A session saved every 1,000 instructions and run on — the saved
/// session itself, never a restored copy — ends exactly where an unsaved
/// run ends: same report, same final frame. Encoding takes `&mut self`
/// for symmetry with decoding; this is the guarantee the borrow no
/// longer states.
#[test]
fn saving_a_running_session_changes_nothing() {
    let k = vecbench::saxpy(&CompileOpts::vector_tuned());
    let cfg = CoreConfig::xt910();
    let mut plain = OooSession::new(&k.program, &cfg, MAX_INSTS);
    let want = plain.run_to_end();

    let mut saved = OooSession::new(&k.program, &cfg, MAX_INSTS);
    let mut frames = 0;
    while saved.run_insts(1_000) == 1_000 {
        saved.save();
        frames += 1;
    }
    let got = saved.finish_report();
    assert!(frames >= 3, "several frames taken mid-run: {frames}");
    assert_eq!(got.perf, want.perf, "perf counters");
    assert_eq!(got.mem, want.mem, "memory statistics");
    assert_eq!(got.exit_code, want.exit_code, "exit code");
    assert_eq!(saved.save(), plain.save(), "final frames");
}
