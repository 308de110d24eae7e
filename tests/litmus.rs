//! RVWMO litmus tests on the epoch-barriered cluster engine.
//!
//! Classic message-passing (MP), store-buffering (SB), load-buffering
//! (LB), and coherent-read-read (CoRR) shapes run on 2-4 cores, with
//! and without fences, across a seeded sweep of epoch lengths. Each
//! observed outcome must lie inside the RVWMO-allowed set for that
//! shape; the engine's buffered stores act as an unbounded store
//! buffer, so the relaxed SB outcome must actually *appear* without
//! fences and must vanish once both cores fence between the store and
//! the load (docs/CLUSTER.md derives why).
//!
//! Outcomes travel out of the guest via the exit code: an observer core
//! packs its reads as `a0 = r1 << 8 | r2` before `halt`.

use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_harness::Rng;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::ClusterSim;

const MAX_INSTS: u64 = 2_000_000;

/// Epoch lengths under test: fixed interesting points (single-step
/// round-robin through the default) plus seeded draws. `XT_HARNESS_SEED`
/// replays a failing sweep.
fn epoch_sweep() -> Vec<u64> {
    let seed = std::env::var("XT_HARNESS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0x1EAF_5EED);
    let mut rng = Rng::new(seed);
    let mut epochs = vec![2, 64, 1024, 8192];
    for _ in 0..4 {
        epochs.push(rng.gen_range_u64(1, 12_288));
    }
    epochs
}

/// Runs `progs` at 1 and at 4 host threads, requires the same outcome,
/// and returns the exit codes.
fn run_cluster(progs: &[Program], epoch: u64) -> Vec<u64> {
    let mem_cfg = MemConfig {
        cores: progs.len(),
        ..MemConfig::default()
    };
    let [r, r4] = [1, 4].map(|threads| {
        ClusterSim::new(progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS)
            .with_epoch(epoch)
            .run_threads(threads)
    });
    assert_eq!(
        r.exit_codes, r4.exit_codes,
        "1 vs 4 threads (epoch {epoch})"
    );
    r.exit_codes
        .iter()
        .enumerate()
        .map(|(i, c)| c.unwrap_or_else(|| panic!("core {i} did not halt (epoch {epoch})")))
        .collect()
}

/// Both shared cells, in every program image, in the same order so the
/// addresses line up across cores: `x` then `y` at the default data base.
fn shared_cells(a: &mut Asm) -> (u64, u64) {
    let x = a.data_u64("x", &[0]);
    let y = a.data_u64("y", &[0]);
    (x, y)
}

// ---- MP: P0 stores data then flag; observers spin on flag, read data ----

fn mp_writer(fenced: bool) -> Program {
    let mut a = Asm::new();
    let (x, y) = shared_cells(&mut a);
    a.la(Gpr::A1, x);
    a.la(Gpr::A2, y);
    a.li(Gpr::A3, 1);
    a.sd(Gpr::A3, Gpr::A1, 0); // data = 1
    if fenced {
        a.fence();
    }
    a.sd(Gpr::A3, Gpr::A2, 0); // flag = 1
    a.li(Gpr::A0, 0);
    a.halt();
    a.finish().unwrap()
}

fn mp_reader(fenced: bool) -> Program {
    let mut a = Asm::new();
    let (x, y) = shared_cells(&mut a);
    a.la(Gpr::A1, x);
    a.la(Gpr::A2, y);
    let spin = a.here();
    a.ld(Gpr::A4, Gpr::A2, 0); // r1 = flag
    a.beqz(Gpr::A4, spin);
    if fenced {
        a.fence();
    }
    a.ld(Gpr::A5, Gpr::A1, 0); // r2 = data
    a.slli(Gpr::A4, Gpr::A4, 8);
    a.or_(Gpr::A0, Gpr::A4, Gpr::A5);
    a.halt();
    a.finish().unwrap()
}

/// MP on 2 and 4 cores: once an observer sees flag = 1, data = 0 is the
/// forbidden stale read when both sides fence. This engine propagates
/// buffered stores in program order at the barrier, so the outcome is
/// (1, 1) even unfenced — still inside the RVWMO-allowed set.
#[test]
fn litmus_mp_never_reads_stale_data() {
    for &epoch in &epoch_sweep() {
        for fenced in [false, true] {
            for readers in [1usize, 3] {
                let mut progs = vec![mp_writer(fenced)];
                progs.extend((0..readers).map(|_| mp_reader(fenced)));
                let codes = run_cluster(&progs, epoch);
                assert_eq!(codes[0], 0, "writer exit");
                for (i, &code) in codes.iter().enumerate().skip(1) {
                    let (r1, r2) = (code >> 8, code & 0xff);
                    assert_eq!(r1, 1, "observer {i} left its spin loop on flag = 1");
                    assert_eq!(
                        r2, 1,
                        "observer {i} read stale data after flag \
                         (epoch {epoch}, fenced {fenced})"
                    );
                }
            }
        }
    }
}

// ---- SB: each core stores its own cell then loads the other's ----

fn sb_core(mine_first: bool, fenced: bool) -> Program {
    let mut a = Asm::new();
    let (x, y) = shared_cells(&mut a);
    let (mine, other) = if mine_first { (x, y) } else { (y, x) };
    a.la(Gpr::A1, mine);
    a.la(Gpr::A2, other);
    a.li(Gpr::A3, 1);
    a.sd(Gpr::A3, Gpr::A1, 0);
    if fenced {
        a.fence();
    }
    a.ld(Gpr::A0, Gpr::A2, 0);
    a.halt();
    a.finish().unwrap()
}

/// SB is the shape that *requires* weak behavior from a store buffer:
/// without fences both cores may read 0 (and in this engine, with a
/// full epoch between barriers, they deterministically do). A `fence`
/// between the store and the load drains the buffer first, so (0, 0)
/// becomes forbidden — and must never appear.
#[test]
fn litmus_sb_relaxed_without_fence_forbidden_with() {
    let mut relaxed_seen = false;
    for &epoch in &epoch_sweep() {
        let progs = |fenced| vec![sb_core(true, fenced), sb_core(false, fenced)];

        let codes = run_cluster(&progs(false), epoch);
        assert!(codes[0] <= 1 && codes[1] <= 1, "reads are 0 or 1");
        relaxed_seen |= codes == [0, 0];

        let codes = run_cluster(&progs(true), epoch);
        assert!(codes[0] <= 1 && codes[1] <= 1, "reads are 0 or 1");
        assert_ne!(
            codes,
            [0, 0],
            "fenced SB produced the forbidden relaxed outcome (epoch {epoch})"
        );
    }
    assert!(
        relaxed_seen,
        "unfenced SB never showed the store-buffer outcome (0, 0) — \
         the engine is stronger than a real store buffer"
    );
}

// ---- LB: each core loads the other's cell then stores its own ----

fn lb_core(mine_first: bool, fenced: bool) -> Program {
    let mut a = Asm::new();
    let (x, y) = shared_cells(&mut a);
    let (mine, other) = if mine_first { (x, y) } else { (y, x) };
    a.la(Gpr::A1, mine);
    a.la(Gpr::A2, other);
    a.li(Gpr::A3, 1);
    a.ld(Gpr::A0, Gpr::A2, 0);
    if fenced {
        a.fence();
    }
    a.sd(Gpr::A3, Gpr::A1, 0);
    a.halt();
    a.finish().unwrap()
}

/// LB's relaxed outcome (1, 1) needs each load to read the *other*
/// core's program-later store. Stores only become visible at a barrier
/// strictly after they execute, so this engine can never produce it —
/// with or without fences the observed outcome stays in the RVWMO set,
/// and fenced runs must exclude (1, 1).
#[test]
fn litmus_lb_never_both_one_when_fenced() {
    for &epoch in &epoch_sweep() {
        for fenced in [false, true] {
            let codes = run_cluster(&[lb_core(true, fenced), lb_core(false, fenced)], epoch);
            assert!(codes[0] <= 1 && codes[1] <= 1, "reads are 0 or 1");
            if fenced {
                assert_ne!(
                    codes,
                    [1, 1],
                    "fenced LB produced the forbidden outcome (epoch {epoch})"
                );
            }
        }
    }
}

// ---- CoRR: same-address reads must never go backwards ----

fn corr_writer(fenced: bool) -> Program {
    let mut a = Asm::new();
    let (x, _) = shared_cells(&mut a);
    a.la(Gpr::A1, x);
    a.li(Gpr::A3, 1);
    a.sd(Gpr::A3, Gpr::A1, 0); // x = 1
    if fenced {
        a.fence(); // split the two writes across barriers
    }
    a.li(Gpr::A3, 2);
    a.sd(Gpr::A3, Gpr::A1, 0); // x = 2
    a.li(Gpr::A0, 0);
    a.halt();
    a.finish().unwrap()
}

fn corr_reader(iters: i64) -> Program {
    let mut a = Asm::new();
    let (x, _) = shared_cells(&mut a);
    a.la(Gpr::A1, x);
    a.li(Gpr::A2, iters);
    a.li(Gpr::A0, 0); // violation flag
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0); // r1 = x
    a.ld(Gpr::A5, Gpr::A1, 0); // r2 = x, program-later
    a.sltu(Gpr::A6, Gpr::A5, Gpr::A4); // r2 < r1: read went backwards
    a.or_(Gpr::A0, Gpr::A0, Gpr::A6);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.halt();
    a.finish().unwrap()
}

/// CoRR (coherence): two program-ordered reads of the same address may
/// never observe values in anti-coherence order, fences or not. The
/// value at `x` only grows (0 -> 1 -> 2), so any r2 < r1 is a
/// violation. Checked with 1-3 observer cores (2-4 cores total)
/// sampling across many epochs of the writer's progress.
#[test]
fn litmus_corr_reads_never_go_backwards() {
    for &epoch in &epoch_sweep() {
        for fenced in [false, true] {
            for readers in [1usize, 3] {
                let mut progs = vec![corr_writer(fenced)];
                progs.extend((0..readers).map(|_| corr_reader(400)));
                let codes = run_cluster(&progs, epoch);
                for (i, &code) in codes.iter().enumerate().skip(1) {
                    assert_eq!(
                        code, 0,
                        "observer {i} saw same-address reads go backwards \
                         (epoch {epoch}, fenced {fenced})"
                    );
                }
            }
        }
    }
}
