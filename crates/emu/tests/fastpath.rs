//! Decoded-block fast path vs. per-step decode: property-based state
//! equivalence (the "pure-speed refactor" contract, docs/FASTPATH.md).
//!
//! Random programs — including self-patching ones that store freshly
//! encoded instruction words over their own loop bodies at random
//! positions (random invalidation points) — run twice, once with the
//! block cache enabled and once on the seed interpreter, and the entire
//! architectural outcome must match: the two emulators' snapshot frames
//! (every register file, PC, instret, privilege mode, CSR file with trap
//! causes, LR reservation, PMP, console bytes, exit code and every
//! nonzero page of guest memory) are byte-equal.
//!
//! Seed for this suite: `0xFA57_0001`; override/replay with
//! `XT_HARNESS_SEED=<seed> cargo test`.

use xt_asm::{Asm, Program};
use xt_emu::{run_both_engines, DynInst, Emulator, ExecError, TraceEvent, TraceSource};
use xt_harness::gen;
use xt_harness::prop::{check_with, Config};
use xt_harness::rng::Rng;
use xt_isa::reg::Gpr;
use xt_isa::{ExecClass, Inst, Op};

const SEED: u64 = 0xFA57_0001;
const FUEL: u64 = 200_000;

fn cfg(cases: u32) -> Config {
    Config::seeded_cases(SEED, cases)
}

/// Runs `p` to completion twice — fast path on and off — and asserts
/// the same outcome and byte-equal frames. Returns the fast emulator for
/// extra assertions.
fn assert_fast_equals_slow(p: &Program, ctx: &str) -> Emulator {
    let [fast, _] = run_both_engines(p, FUEL, |_| {}).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    fast
}

/// Asserts byte-equal snapshot frames of two emulators: every register
/// file, CSRs, privilege mode, LR reservation, PMP, console, exit code
/// and memory.
fn assert_same_state(fast: &mut Emulator, slow: &mut Emulator, ctx: &str) {
    if let Some(d) = xt_snapshot::first_difference(&fast.frame(), &slow.frame()) {
        panic!("{ctx}: {d}");
    }
}

/// Encodes `addi rd, x0, k` — the patch word the SMC generators store
/// over their own code.
fn addi_word(rd: Gpr, k: i64) -> u32 {
    xt_isa::encode::encode(&Inst::new(Op::Addi).rd(rd.index()).rs1(0).imm(k)).unwrap()
}

/// Builds a random straight-line-plus-loop program. When `smc` is set,
/// the loop body also patches one of its own earlier instructions (a
/// random invalidation point) with a freshly encoded `addi`, so the
/// block executing the store is itself invalidated mid-flight.
///
/// Register budget: a2-a7 computation pool, a1 data base, t0/t1 patch
/// plumbing, t2 loop counter.
fn gen_program(seed: u64, smc: bool) -> Program {
    let mut rng = Rng::new(seed);
    let pool = [Gpr::A2, Gpr::A3, Gpr::A4, Gpr::A5, Gpr::A6, Gpr::A7];
    let mut a = Asm::new();
    let data = a.data_zeros("scratch", 256);
    a.la(Gpr::A1, data);
    for &r in &pool {
        a.li(r, rng.gen_range(-512, 512));
    }
    a.li(Gpr::T2, rng.gen_range(2, 6)); // loop iterations

    // jump over the loop body to the setup tail (the backward-jump
    // layout: patch-site addresses are known once the body is emitted)
    let top = a.here();
    let mut sites: Vec<(u64, Gpr)> = Vec::new();
    let n_ops = rng.gen_range(4, 16);
    for _ in 0..n_ops {
        let rd = *rng.choose(&pool);
        let rs = *rng.choose(&pool);
        let rt = *rng.choose(&pool);
        match rng.below(8) {
            0 => {
                sites.push((a.pc(), rd));
                a.li(rd, rng.gen_range(0, 2048)); // patchable site (addi rd, x0, k)
            }
            1 => {
                a.add(rd, rs, rt);
            }
            2 => {
                a.xor_(rd, rs, rt);
            }
            3 => {
                a.addi(rd, rs, rng.gen_range(-100, 100));
            }
            4 => {
                a.sd(rs, Gpr::A1, rng.gen_range(0, 31) * 8);
            }
            5 => {
                a.ld(rd, Gpr::A1, rng.gen_range(0, 31) * 8);
            }
            6 => {
                a.mul(rd, rs, rt);
            }
            _ => {
                a.sltu(rd, rs, rt);
            }
        }
    }
    if smc && !sites.is_empty() {
        // patch a random earlier site in this very loop body: the next
        // iteration must execute the new instruction
        let (site_pc, site_rd) = sites[rng.below(sites.len() as u64) as usize];
        let word = addi_word(site_rd, rng.gen_range(0, 2048));
        a.li(Gpr::T0, site_pc as i64);
        a.li(Gpr::T1, word as i64);
        a.sw(Gpr::T1, Gpr::T0, 0);
        if rng.gen_bool(0.5) {
            a.fence_i();
        }
    }
    a.addi(Gpr::T2, Gpr::T2, -1);
    a.bnez(Gpr::T2, top);
    // fold the pool into the exit code
    a.li(Gpr::A0, 0);
    for &r in &pool {
        a.xor_(Gpr::A0, Gpr::A0, r);
    }
    a.halt();
    a.finish().unwrap()
}

#[test]
fn random_programs_state_identical() {
    check_with(
        &cfg(64),
        "random_programs_state_identical",
        &gen::any::<u64>(),
        |&seed| {
            let p = gen_program(seed, false);
            assert_fast_equals_slow(&p, &format!("seed {seed:#x}"));
        },
    );
}

#[test]
fn random_smc_programs_state_identical() {
    check_with(
        &cfg(64),
        "random_smc_programs_state_identical",
        &gen::any::<u64>(),
        |&seed| {
            let p = gen_program(seed, true);
            let fast = assert_fast_equals_slow(&p, &format!("smc seed {seed:#x}"));
            let stats = fast.cache_stats();
            assert!(stats.blocks_built > 0, "fast path actually engaged");
        },
    );
}

/// The per-step engine (cursor path, one-record fills) must yield the
/// same retired-record stream as the reference, record for record.
#[test]
fn stepwise_records_identical() {
    check_with(
        &cfg(24),
        "stepwise_records_identical",
        &gen::any::<u64>(),
        |&seed| {
            let p = gen_program(seed, true);
            let [mut fast, mut slow] =
                [true, false].map(|on| TraceSource::new(loaded_with(&p, on), FUEL));
            for k in 0..FUEL {
                match (pull(&mut fast), pull(&mut slow)) {
                    (Some(da), Some(db)) => {
                        assert_eq!(da, db, "seed {seed:#x}: record #{k} diverged")
                    }
                    (None, None) => {
                        assert!(fast.exit_code.is_some(), "seed {seed:#x}: {:?}", fast.error);
                        assert_eq!(fast.exit_code, slow.exit_code, "seed {seed:#x}: exit codes");
                        return;
                    }
                    (a, b) => panic!("seed {seed:#x}: pull #{k} retired {a:?} vs {b:?}"),
                }
            }
            panic!("seed {seed:#x}: program did not halt in {FUEL} steps");
        },
    );
}

/// A one-record [`TraceSource::fill`]: the record, or `None` when
/// nothing retired.
fn pull(trace: &mut TraceSource) -> Option<DynInst> {
    let mut rec = DynInst::trap_entry(0, 0);
    (trace.fill(std::slice::from_mut(&mut rec)) == 1).then_some(rec)
}

/// Trap delivery (cause/tval CSRs, handler redirect) is identical on
/// both paths: ecall from a cached block, then a misaligned AMO.
#[test]
fn trap_causes_identical() {
    let mut a = Asm::new();
    let handler = a.new_label();
    let main = a.new_label();
    a.jump(main);
    a.bind(handler).unwrap();
    // mcause accumulates into a6; return past the faulting instruction
    a.csrr(Gpr::A4, xt_isa::csr::MCAUSE);
    a.add(Gpr::A6, Gpr::A6, Gpr::A4);
    a.csrr(Gpr::A5, xt_isa::csr::MEPC);
    a.addi(Gpr::A5, Gpr::A5, 4);
    a.csrw(xt_isa::csr::MEPC, Gpr::A5);
    a.mret();
    a.bind(main).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
    a.ecall(); // cause 11 (M-mode ecall)
    let cell = a.data_zeros("cell", 16);
    a.la(Gpr::A1, cell);
    a.addi(Gpr::A1, Gpr::A1, 2); // misalign
    a.amoadd_w(Gpr::A2, Gpr::A3, Gpr::A1); // cause 6 (store misaligned)
    a.mv(Gpr::A0, Gpr::A6);
    a.halt();
    let p = a.finish().unwrap();
    let fast = assert_fast_equals_slow(&p, "trap causes");
    assert_eq!(fast.halted, Some(11 + 6), "both trap causes observed");
}

/// The block cache's own telemetry: an SMC loop must record hits,
/// misses, builds and store-to-code invalidations.
#[test]
fn cache_stats_observe_smc() {
    let p = gen_program(0x5EED, true);
    let mut emu = Emulator::new();
    emu.set_fastpath(true);
    emu.load(&p);
    emu.run(FUEL).unwrap();
    let s = emu.cache_stats();
    assert!(s.hits > 0, "cached execution happened: {s:?}");
    assert!(s.misses > 0, "cold lookups happened: {s:?}");
    assert!(s.blocks_built > 0, "blocks were lowered: {s:?}");
    assert!(s.blocks_invalidated > 0, "store-to-code invalidated: {s:?}");
}

/// `TraceSource` (the timing models' input) sees the same stream with
/// caching on and off — cursor path included.
#[test]
fn trace_source_stream_identical() {
    let p = gen_program(0xBEEF, true);
    let fast = drain(loaded(&p), Drive::Fill);
    let slow = drain(loaded(&p), Drive::Reference);
    assert_eq!(fast, slow, "retired streams diverge");
    assert!(!fast.recs.is_empty());
}

// ---------------------------------------------------------------------
// `run`'s block loop reads a block's entries in place: a store may kill
// the block under it, another block, or nothing
// ---------------------------------------------------------------------

/// Where a self-modifying guest's store lands, seen from the block that
/// executes it. Invalidation is page-granular, so a store to any code on
/// the running block's page kills the running block too; only a store to
/// another page kills blocks and leaves the running one alive.
#[derive(Clone, Copy, Debug)]
enum Patch {
    OwnBlock,
    OtherBlockSamePage,
    OtherPage,
}

/// Page 0 holds `f`, page 1 holds `g` and the main loop. Every iteration
/// re-patches one `li` (its own, `g`'s or `f`'s) with a new immediate,
/// runs on in the same block, then calls both functions and folds what
/// they return into the exit code.
fn patching_program(kind: Patch) -> Program {
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    let (f, f_site) = (a.here(), a.pc());
    a.li(Gpr::A4, 1);
    a.ret();
    while a.pc() < xt_asm::DEFAULT_TEXT_BASE + 4096 {
        a.nop();
    }
    let (g, g_site) = (a.here(), a.pc());
    a.li(Gpr::A4, 2);
    a.ret();
    a.bind(main).unwrap();
    a.li(Gpr::T2, 5);
    a.call(f);
    a.call(g); // both callees are cached before the first patch
    let (top, own_site) = (a.here(), a.pc());
    a.li(Gpr::A2, 7);
    a.add(Gpr::A5, Gpr::A5, Gpr::A2);
    let (site, rd) = match kind {
        Patch::OwnBlock => (own_site, Gpr::A2),
        Patch::OtherBlockSamePage => (g_site, Gpr::A4),
        Patch::OtherPage => (f_site, Gpr::A4),
    };
    // the new word: `addi rd, x0, 100 + t2` (the immediate is bits 31:20)
    a.li(Gpr::T0, site as i64);
    a.li(Gpr::T1, addi_word(rd, 100) as i64);
    a.slli(Gpr::T3, Gpr::T2, 20);
    a.add(Gpr::T1, Gpr::T1, Gpr::T3);
    a.sw(Gpr::T1, Gpr::T0, 0);
    a.addi(Gpr::A3, Gpr::A3, 3); // the rest of the storing block
    a.add(Gpr::A5, Gpr::A5, Gpr::A3);
    a.call(f);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.call(g);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.addi(Gpr::T2, Gpr::T2, -1);
    a.bnez(Gpr::T2, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    a.finish().unwrap()
}

/// `run` (whole blocks, entries read in place) against one-record fills
/// (one cursor step at a time) and the reference interpreter: same registers
/// and memory from all three, and from the two block engines the same
/// hits, misses, builds and invalidations — a `run` that left a block
/// early, or late, would look up and build blocks the fills do not.
#[test]
fn run_and_step_agree_on_self_modifying_blocks_stats_included() {
    for kind in [Patch::OwnBlock, Patch::OtherBlockSamePage, Patch::OtherPage] {
        let p = patching_program(kind);
        let ran = assert_fast_equals_slow(&p, &format!("{kind:?}"));
        let mut trace = TraceSource::new(loaded_with(&p, true), FUEL);
        while pull(&mut trace).is_some() {}
        assert!(trace.exit_code.is_some(), "{kind:?}: no halt");
        let stepped = trace.emulator();
        assert_eq!(stepped.halted, ran.halted, "{kind:?}: exit code");
        assert_eq!(stepped.cpu.x, ran.cpu.x, "{kind:?}: integer registers");
        assert_eq!(stepped.cpu.instret, ran.cpu.instret, "{kind:?}: instret");
        assert_eq!(
            stepped.mem.snapshot_nonzero(),
            ran.mem.snapshot_nonzero(),
            "{kind:?}: guest memory"
        );
        assert_eq!(stepped.cache_stats(), ran.cache_stats(), "{kind:?}: block cache counters");
        let stats = ran.cache_stats();
        assert!(stats.blocks_invalidated >= 5, "{kind:?}: every patch killed a block: {stats:?}");
        // 5 iterations, patches 105..101: a2 sees one an iteration late,
        // f and g the same iteration; a3 adds 3, 6, .. 15
        let want = match kind {
            Patch::OwnBlock => 7 + 105 + 104 + 103 + 102 + 5 * 3,
            Patch::OtherBlockSamePage => 5 * 7 + 5 + 105 + 104 + 103 + 102 + 101,
            Patch::OtherPage => 5 * 7 + 105 + 104 + 103 + 102 + 101 + 5 * 2,
        } + 3 * (1 + 2 + 3 + 4 + 5);
        assert_eq!(ran.halted, Some(want), "{kind:?}: the patches took effect when they should");
    }
}

// ---------------------------------------------------------------------
// asynchronous interrupts: block-boundary polling must be invisible
// ---------------------------------------------------------------------

/// Minimal hart-0 timer platform for interrupt-delivery tests (the full
/// CLINT/PLIC bus lives in `xt-soc`; the emu crate tests only the
/// delivery contract through the `Platform` trait).
#[derive(Debug)]
struct TimerPlatform {
    mtime: u64,
    mtimecmp: u64,
}

/// The mtimecmp MMIO doubleword, placed inside the CLINT window.
const TIMER_CMP_PA: u64 =
    xt_emu::platform::CLINT_BASE + xt_emu::platform::clint_map::MTIMECMP_BASE;
const TIMER_MTIME_PA: u64 =
    xt_emu::platform::CLINT_BASE + xt_emu::platform::clint_map::MTIME;

impl xt_emu::Platform for TimerPlatform {
    fn contains(&self, pa: u64) -> bool {
        pa == TIMER_CMP_PA || pa == TIMER_MTIME_PA
    }
    fn read(&mut self, pa: u64, size: usize) -> Result<u64, xt_emu::BusFault> {
        match (pa, size) {
            (TIMER_CMP_PA, 8) => Ok(self.mtimecmp),
            (TIMER_MTIME_PA, 8) => Ok(self.mtime),
            _ => Err(xt_emu::BusFault),
        }
    }
    fn write(&mut self, pa: u64, val: u64, size: usize) -> Result<(), xt_emu::BusFault> {
        match (pa, size) {
            (TIMER_CMP_PA, 8) => {
                self.mtimecmp = val;
                Ok(())
            }
            (TIMER_MTIME_PA, 8) => {
                self.mtime = val;
                Ok(())
            }
            _ => Err(xt_emu::BusFault),
        }
    }
    fn tick(&mut self, t: u64) {
        self.mtime += t;
    }
    fn irq_lines(&self, _hart: u64) -> xt_emu::IrqLines {
        xt_emu::IrqLines {
            msip: false,
            mtip: self.mtime >= self.mtimecmp,
            meip: false,
        }
    }
    fn ticks_to_timer(&self, _hart: u64) -> Option<u64> {
        if self.mtimecmp == u64::MAX || self.mtime >= self.mtimecmp {
            None
        } else {
            Some(self.mtimecmp - self.mtime)
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Like [`assert_fast_equals_slow`], with a fresh [`TimerPlatform`]
/// attached to each emulator (`cmp0` pre-arms the compare).
fn assert_fast_equals_slow_irq(p: &Program, cmp0: u64, ctx: &str) -> Emulator {
    let timer = |emu: &mut Emulator| {
        emu.attach_platform(Box::new(TimerPlatform {
            mtime: 0,
            mtimecmp: cmp0,
        }))
    };
    let [fast, _] = run_both_engines(p, FUEL, timer).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    fast
}

/// A tight counted loop (the fast path's best case) preempted by a
/// re-arming timer handler: interrupt delivery must hit the *same
/// instruction boundary* with blocks on and off, because the poll runs
/// before every instruction inside `run_block`, not just at block
/// entry. The handler counts interrupts in s3; the loop counts down a5.
#[test]
fn timer_interrupt_delivery_identical() {
    let fast = assert_fast_equals_slow_irq(&timer_loop_program(20_000), 61, "timer preemption");
    let hits = fast.halted.unwrap();
    assert!(hits > 100, "the loop was preempted many times: {hits}");
}

/// The guest of [`timer_interrupt_delivery_identical`], `iters` loop
/// iterations long; exits with the number of interrupts taken.
fn timer_loop_program(iters: i64) -> Program {
    let mut a = Asm::new();
    let boot = a.new_label();
    a.jump(boot);
    let handler = a.pc();
    // count, re-arm 97 ticks ahead (odd stride so the preemption point
    // walks across the loop body), return
    a.addi(Gpr::S3, Gpr::S3, 1);
    a.li(Gpr::T1, TIMER_MTIME_PA as i64);
    a.ld(Gpr::T2, Gpr::T1, 0);
    a.addi(Gpr::T2, Gpr::T2, 97);
    a.li(Gpr::T1, TIMER_CMP_PA as i64);
    a.sd(Gpr::T2, Gpr::T1, 0);
    a.mret();
    a.bind(boot).unwrap();
    a.li(Gpr::T0, handler as i64);
    a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
    a.li(Gpr::T0, 1 << xt_isa::csr::irq::MTI);
    a.csrw(xt_isa::csr::MIE, Gpr::T0);
    a.li(Gpr::T0, xt_isa::csr::mstatus::MIE as i64);
    a.csrs(xt_isa::csr::MSTATUS, Gpr::T0);
    a.li(Gpr::A5, iters);
    let top = a.here();
    a.addi(Gpr::A4, Gpr::A4, 3);
    a.xori(Gpr::A4, Gpr::A4, 5);
    a.addi(Gpr::A5, Gpr::A5, -1);
    a.bnez(Gpr::A5, top);
    a.mv(Gpr::A0, Gpr::S3);
    a.halt();
    a.finish().unwrap()
}

/// Random loop bodies under a periodically re-armed timer: the
/// interrupt boundary keeps moving through cached blocks (odd re-arm
/// strides, random body lengths) and the architectural state must never
/// diverge between the batched and per-step engines.
#[test]
fn random_programs_with_interrupts_identical() {
    check_with(
        &cfg(24),
        "random_programs_with_interrupts_identical",
        &gen::any::<u64>(),
        |&seed| {
            let mut rng = Rng::new(seed);
            let pool = [Gpr::A2, Gpr::A3, Gpr::A4, Gpr::A6, Gpr::A7];
            let mut a = Asm::new();
            let boot = a.new_label();
            a.jump(boot);
            let handler = a.pc();
            let stride = 101 + rng.gen_range(0, 200);
            a.addi(Gpr::S3, Gpr::S3, 1);
            a.li(Gpr::T5, TIMER_MTIME_PA as i64);
            a.ld(Gpr::T6, Gpr::T5, 0);
            a.addi(Gpr::T6, Gpr::T6, stride);
            a.li(Gpr::T5, TIMER_CMP_PA as i64);
            a.sd(Gpr::T6, Gpr::T5, 0);
            a.mret();
            a.bind(boot).unwrap();
            a.li(Gpr::T0, handler as i64);
            a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
            a.li(Gpr::T0, 1 << xt_isa::csr::irq::MTI);
            a.csrw(xt_isa::csr::MIE, Gpr::T0);
            a.li(Gpr::T0, xt_isa::csr::mstatus::MIE as i64);
            a.csrs(xt_isa::csr::MSTATUS, Gpr::T0);
            a.li(Gpr::A5, rng.gen_range(500, 4000));
            let top = a.here();
            for _ in 0..rng.gen_range(3, 12) {
                let rd = *rng.choose(&pool);
                let rs = *rng.choose(&pool);
                match rng.below(4) {
                    0 => a.addi(rd, rs, rng.gen_range(-64, 64)),
                    1 => a.xori(rd, rs, rng.gen_range(0, 64)),
                    2 => a.add(rd, rd, rs),
                    _ => a.slli(rd, rs, rng.gen_range(0, 8)),
                };
            }
            a.addi(Gpr::A5, Gpr::A5, -1);
            a.bnez(Gpr::A5, top);
            a.mv(Gpr::A0, Gpr::S3);
            a.halt();
            let p = a.finish().unwrap();
            let cmp0 = 31 + seed % 97;
            assert_fast_equals_slow_irq(&p, cmp0, &format!("irq seed {seed:#x}"));
        },
    );
}

/// A user-mode task under bare `satp` — what `xt_workloads::sched` runs:
/// fetch is untranslated and unchecked, so the task belongs on decoded
/// blocks. Machine-mode boot drops to U through `mret`; the task counts
/// down a random body, asks the kernel for a service with `ecall` every
/// iteration (the handler counts it and steps `mepc`), is preempted by a
/// re-arming timer, patches its own first instruction half of the time,
/// and exits through a last `ecall`. Exit code = timer hits × 2¹⁶ +
/// service calls.
fn user_mode_program(seed: u64) -> (Program, i64) {
    let mut rng = Rng::new(seed);
    let pool = [Gpr::A2, Gpr::A3, Gpr::A4, Gpr::A6];
    let mut a = Asm::new();
    let data = a.data_zeros("scratch", 64);
    let boot = a.new_label();
    a.jump(boot);
    // the handler, M-mode, direct `mtvec`: t3-t6 and s3/s4 are its own
    let (timer, exit) = (a.new_label(), a.new_label());
    a.csrr(Gpr::T3, xt_isa::csr::MCAUSE);
    a.bltz(Gpr::T3, timer);
    a.bnez(Gpr::A7, exit);
    a.addi(Gpr::S4, Gpr::S4, 1);
    a.csrr(Gpr::T4, xt_isa::csr::MEPC);
    a.addi(Gpr::T4, Gpr::T4, 4);
    a.csrw(xt_isa::csr::MEPC, Gpr::T4);
    a.mret();
    a.bind(timer).unwrap();
    a.addi(Gpr::S3, Gpr::S3, 1);
    a.li(Gpr::T5, TIMER_MTIME_PA as i64);
    a.ld(Gpr::T6, Gpr::T5, 0);
    a.addi(Gpr::T6, Gpr::T6, 53 + rng.gen_range(0, 90));
    a.li(Gpr::T5, TIMER_CMP_PA as i64);
    a.sd(Gpr::T6, Gpr::T5, 0);
    a.mret();
    a.bind(exit).unwrap();
    a.slli(Gpr::A0, Gpr::S3, 16);
    a.add(Gpr::A0, Gpr::A0, Gpr::S4);
    a.halt();

    // the task, U-mode: a1 data, a5 countdown, a7 service number
    let iters = rng.gen_range(200, 900);
    let task_pc = a.pc();
    let top = a.here();
    a.li(Gpr::A2, 1); // the patch site
    for _ in 0..rng.gen_range(3, 10) {
        let rd = *rng.choose(&pool);
        let rs = *rng.choose(&pool);
        match rng.below(4) {
            0 => a.addi(rd, rs, rng.gen_range(-64, 64)),
            1 => a.add(rd, rd, rs),
            2 => a.sd(rs, Gpr::A1, rng.gen_range(0, 7) * 8),
            _ => a.ld(rd, Gpr::A1, rng.gen_range(0, 7) * 8),
        };
    }
    if rng.gen_bool(0.5) {
        a.li(Gpr::T0, task_pc as i64);
        a.li(Gpr::T1, addi_word(Gpr::A2, rng.gen_range(2, 2048)) as i64);
        a.sw(Gpr::T1, Gpr::T0, 0);
    }
    a.ecall();
    a.addi(Gpr::A5, Gpr::A5, -1);
    a.bnez(Gpr::A5, top);
    a.li(Gpr::A7, 1);
    a.ecall();

    a.bind(boot).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
    a.li(Gpr::T0, 1 << xt_isa::csr::irq::MTI);
    a.csrw(xt_isa::csr::MIE, Gpr::T0);
    a.la(Gpr::A1, data);
    a.li(Gpr::A5, iters);
    // mepc = task, MPP = U, MPIE = 1
    a.li(Gpr::T0, task_pc as i64);
    a.csrw(xt_isa::csr::MEPC, Gpr::T0);
    a.li(Gpr::T0, xt_isa::csr::mstatus::MPP_MASK as i64);
    a.csrc(xt_isa::csr::MSTATUS, Gpr::T0);
    a.li(Gpr::T0, xt_isa::csr::mstatus::MPIE as i64);
    a.csrs(xt_isa::csr::MSTATUS, Gpr::T0);
    a.mret();
    (a.finish().unwrap(), iters)
}

/// The U-mode leg: state-identical on both engines and through all four
/// step drivers, `ecall` and timer round trips included — and actually
/// on decoded blocks, which a machine-mode-only gate would not be.
#[test]
fn user_mode_tasks_run_on_decoded_blocks() {
    check_with(
        &cfg(16),
        "user_mode_tasks_run_on_decoded_blocks",
        &gen::any::<u64>(),
        |&seed| {
            let (p, iters) = user_mode_program(seed);
            let cmp0 = 40 + seed % 61;
            let ctx = format!("user seed {seed:#x}");
            let fast = assert_fast_equals_slow_irq(&p, cmp0, &ctx);
            let code = fast.halted.expect("the task exits through the kernel");
            assert_eq!(code & 0xFFFF, iters as u64, "{ctx}: one service call per iteration");
            assert!(code >> 16 > 2, "{ctx}: the task was preempted: {code:#x}");
            let stats = fast.cache_stats();
            assert!(
                stats.hits * 10 >= fast.cpu.instret * 9,
                "{ctx}: user instructions came from cached blocks: {stats:?} of {}",
                fast.cpu.instret
            );
            let d = assert_drains_agree(
                || {
                    let mut emu = loaded(&p);
                    emu.attach_platform(Box::new(TimerPlatform {
                        mtime: 0,
                        mtimecmp: cmp0,
                    }));
                    emu
                },
                &ctx,
            );
            assert_eq!(d.exit_code, Some(code));
        },
    );
}

// ---------------------------------------------------------------------
// the step driver: one retired record, built in place
// (docs/FASTPATH.md, "Step driver")
// ---------------------------------------------------------------------

/// A way of pulling retired records out of a guest.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// `TraceSource::fill` into a reused slice, a block at a time.
    Fill,
    /// `TraceSource::fill` into one reused record.
    FillOne,
    /// `TraceSource::try_next`: one fresh record per call, copied out.
    TryNext,
    /// One-record fills on the per-step reference path.
    Reference,
}

/// Records a [`Drive::Fill`] asks for: fewer than some blocks hold, so
/// a fill also ends where the slice does.
const FILL: usize = 16;

/// Everything a drain observed: the records, every barrier request as
/// (records retired before it, PC), and how the guest ended.
#[derive(Debug, PartialEq)]
struct Drained {
    recs: Vec<DynInst>,
    parked_at: Vec<(usize, u64)>,
    exit_code: Option<u64>,
    error: Option<ExecError>,
}

/// Drains `emu` through `how`. A pull that retires nothing must leave
/// the records as they were; then the trace has ended, or it parked a
/// gated guest, which is granted every barrier it asks for at once:
/// the PC stays on the gated instruction.
fn drain(mut emu: Emulator, how: Drive) -> Drained {
    emu.set_fastpath(!matches!(how, Drive::Reference));
    let mut out = Drained {
        recs: Vec::new(),
        parked_at: Vec::new(),
        exit_code: None,
        error: None,
    };
    let mut trace = TraceSource::new(emu, FUEL + 1);
    let len = if matches!(how, Drive::Fill) { FILL } else { 1 };
    let mut recs = [DynInst::trap_entry(0, 0); FILL];
    while out.recs.len() as u64 <= FUEL {
        let before = recs;
        let n = match how {
            Drive::TryNext => match trace.try_next() {
                TraceEvent::Inst(d) => {
                    recs[0] = d;
                    1
                }
                TraceEvent::Barrier => {
                    assert!(!trace.ended(), "{how:?}: Barrier from an ended trace");
                    0
                }
                TraceEvent::Done => {
                    assert!(trace.ended(), "{how:?}: Done from an open trace");
                    0
                }
            },
            _ => trace.fill(&mut recs[..len]),
        };
        if n > 0 {
            out.recs.extend_from_slice(&recs[..n]);
            assert_eq!(trace.retired(), out.recs.len() as u64);
            continue;
        }
        assert_eq!(recs, before, "{how:?}: an empty pull wrote a record");
        if trace.ended() {
            out.exit_code = trace.exit_code;
            out.error = trace.error.clone();
            return out;
        }
        let emu = trace.emulator_mut();
        out.parked_at.push((out.recs.len(), emu.cpu.pc));
        emu.cluster.as_mut().expect("only gated guests park").release_one = true;
    }
    panic!("{how:?}: no end of trace in {FUEL} records");
}

/// The four drains of the guest `mk` builds must agree field for field;
/// returns what they agreed on. `try_next()` starts every record from a
/// blank and the fills from the previous occupant of their slot, so a
/// field the in-place body forgets to write shows up as a difference
/// here.
fn assert_drains_agree(mk: impl Fn() -> Emulator, ctx: &str) -> Drained {
    let want = drain(mk(), Drive::Reference);
    assert!(!want.recs.is_empty(), "{ctx}: nothing retired");
    for how in [Drive::Fill, Drive::FillOne, Drive::TryNext] {
        let got = drain(mk(), how);
        for (k, (g, w)) in got.recs.iter().zip(&want.recs).enumerate() {
            assert_eq!(g, w, "{ctx}: {how:?} record #{k}");
        }
        assert_eq!(got.recs.len(), want.recs.len(), "{ctx}: {how:?} stream length");
        assert_eq!(got, want, "{ctx}: {how:?}");
    }
    want
}

fn loaded(p: &Program) -> Emulator {
    let mut emu = Emulator::new();
    emu.load(p);
    emu
}

#[test]
fn step_drivers_agree_on_smc_torture_programs() {
    check_with(
        &cfg(24),
        "step_drivers_agree_on_smc_torture_programs",
        &gen::any::<u64>(),
        |&seed| {
            let p = gen_program(seed, seed % 4 != 0);
            let d = assert_drains_agree(|| loaded(&p), &format!("seed {seed:#x}"));
            assert!(d.exit_code.is_some() && d.error.is_none());
        },
    );
}

/// Interrupt entries are records too (`trapped`, no `instret`), and
/// they reach the caller's record by a different assignment than
/// retired instructions do.
#[test]
fn step_drivers_agree_under_timer_interrupts() {
    let p = timer_loop_program(600);
    let d = assert_drains_agree(
        || {
            let mut emu = loaded(&p);
            emu.attach_platform(Box::new(TimerPlatform {
                mtime: 0,
                mtimecmp: 61,
            }));
            emu
        },
        "timer loop",
    );
    let entries = d.recs.iter().filter(|r| r.trapped).count() as u64;
    assert_eq!(Some(entries), d.exit_code, "one trapped record per interrupt");
    assert!(entries > 10);
}

/// A gated guest: every AMO, LR/SC and fence asks for the barrier
/// first. The request must leave `current()` unread-able as news (it
/// still equals the previous record) and the cursor parked on the gated
/// instruction, which then retires as the very next record.
#[test]
fn step_drivers_agree_on_a_gated_cluster_guest() {
    let mut a = Asm::new();
    let cell = a.data_u64("cell", &[5]);
    a.la(Gpr::A1, cell);
    a.li(Gpr::A2, 10);
    a.li(Gpr::T2, 3);
    let top = a.here();
    a.amoadd_d(Gpr::A3, Gpr::A2, Gpr::A1);
    a.addi(Gpr::A4, Gpr::A4, 1);
    a.fence();
    a.lr_d(Gpr::A5, Gpr::A1);
    a.sc_d(Gpr::A6, Gpr::A5, Gpr::A1);
    a.addi(Gpr::T2, Gpr::T2, -1);
    a.bnez(Gpr::T2, top);
    a.ld(Gpr::A0, Gpr::A1, 0);
    a.halt();
    let p = a.finish().unwrap();
    let d = assert_drains_agree(
        || {
            let mut emu = loaded(&p);
            emu.cluster = Some(xt_emu::ClusterCtl {
                gate: true,
                ..Default::default()
            });
            emu
        },
        "gated guest",
    );
    assert_eq!(d.exit_code, Some(35));
    assert_eq!(d.parked_at.len(), 3 * 4, "amo, fence, lr, sc per iteration");
    for &(k, pc) in &d.parked_at {
        let gated = &d.recs[k];
        assert_eq!(gated.pc, pc, "the parked instruction retires next: {gated:?}");
        let class = gated.inst.op.exec_class();
        assert!(matches!(class, ExecClass::Amo | ExecClass::Fence), "{gated:?}");
    }
}

/// Trap records: `ecall` and a misaligned AMO from cached blocks, a
/// fetch access fault (PMP, reference path) — each followed by the
/// handler's first instruction, which must not inherit `trapped`.
#[test]
fn step_drivers_agree_on_trap_records() {
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    // handler: count, skip the faulting instruction (or, for the fetch
    // fault, return to the caller in ra)
    a.addi(Gpr::A6, Gpr::A6, 1);
    a.csrr(Gpr::A4, xt_isa::csr::MCAUSE);
    a.addi(Gpr::A4, Gpr::A4, -1);
    let fetch_fault = a.new_label();
    a.beqz(Gpr::A4, fetch_fault);
    a.csrr(Gpr::A5, xt_isa::csr::MEPC);
    a.addi(Gpr::A5, Gpr::A5, 4);
    a.csrw(xt_isa::csr::MEPC, Gpr::A5);
    a.mret();
    a.bind(fetch_fault).unwrap();
    a.csrw(xt_isa::csr::MEPC, Gpr::RA);
    a.mret();
    a.bind(main).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
    a.ecall();
    let cell = a.data_zeros("cell", 16);
    a.la(Gpr::A1, cell);
    a.ld(Gpr::A2, Gpr::A1, 0);
    a.addi(Gpr::A1, Gpr::A1, 2);
    a.amoadd_w(Gpr::A2, Gpr::A3, Gpr::A1);
    a.li(Gpr::T0, NO_EXEC as i64);
    a.jalr(Gpr::RA, Gpr::T0, 0);
    a.mv(Gpr::A0, Gpr::A6);
    a.halt();
    let p = a.finish().unwrap();
    const NO_EXEC: u64 = 0x9000_0000;
    for pmp in [false, true] {
        let d = assert_drains_agree(
            || {
                let mut emu = loaded(&p);
                if pmp {
                    let locked_rw = xt_emu::pmp::PmpPerms {
                        x: false,
                        locked: true,
                        ..xt_emu::pmp::PmpPerms::rwx()
                    };
                    emu.pmp
                        .add(xt_emu::pmp::PmpRegion {
                            start: NO_EXEC,
                            end: NO_EXEC + 0x1000,
                            perms: locked_rw,
                        })
                        .unwrap();
                }
                emu
            },
            &format!("traps, pmp {pmp}"),
        );
        let traps: Vec<&DynInst> = d.recs.iter().filter(|r| r.trapped).collect();
        if !pmp {
            // no PMP: the jump lands on zeroes, which do not decode
            assert!(matches!(d.error, Some(ExecError::Decode { pc: NO_EXEC, .. })));
            assert_eq!(traps.len(), 2);
            continue;
        }
        assert_eq!(d.exit_code, Some(3), "three traps handled");
        let ops: Vec<Op> = traps.iter().map(|r| r.inst.op).collect();
        assert_eq!(ops, [Op::Ecall, Op::AmoAddW, Op::Ebreak]);
        assert_eq!(traps[2].pc, NO_EXEC, "the fetch fault's record sits at the faulting pc");
        for (k, r) in d.recs.iter().enumerate() {
            assert_eq!(r.fetch_pa, r.pc, "untranslated: record #{k}");
            if r.trapped {
                assert_eq!(r.next_pc, xt_asm::DEFAULT_TEXT_BASE + 4);
                assert_eq!(r.mem, None);
                let next = &d.recs[k + 1];
                assert!(!next.trapped && next.pc == r.next_pc, "handler entry: {next:?}");
            }
        }
    }
}

/// What one record leaves behind must not reach the next: the in-place
/// body overwrites a record whose previous occupant set `mem` (a load),
/// `vl`/`sew_bits` (a vector op) or `trapped` (a trap).
#[test]
fn in_place_records_carry_nothing_over() {
    use xt_isa::reg::Vr;
    use xt_isa::vector::Sew;
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    a.li(Gpr::A0, 9); // trap handler
    a.halt();
    a.bind(main).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
    let x = a.data_u32("x", &[1, 2, 3, 4]);
    a.la(Gpr::A2, x);
    a.li(Gpr::A1, 4);
    a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
    a.vle(Vr::new(1), Gpr::A2);
    a.addi(Gpr::A3, Gpr::A3, 1); // after a vector load
    a.vadd_vv(Vr::new(2), Vr::new(1), Vr::new(1));
    a.ld(Gpr::A4, Gpr::A2, 0);
    a.add(Gpr::A4, Gpr::A4, Gpr::A3); // after a load
    a.sd(Gpr::A4, Gpr::A2, 8);
    a.xor_(Gpr::A5, Gpr::A4, Gpr::A3); // after a store
    a.ecall(); // and the handler's `li` after a trap
    let p = a.finish().unwrap();
    let d = assert_drains_agree(|| loaded(&p), "carry-over");
    assert_eq!(d.exit_code, Some(9));
    let mut seen = [false; 4];
    for w in d.recs.windows(2) {
        let (prev, next) = (&w[0], &w[1]);
        if next.inst.op.is_vector() {
            assert_eq!((next.vl, next.sew_bits), (4, 32), "{next:?}");
            continue;
        }
        assert_eq!((next.vl, next.sew_bits), (0, 0), "after {prev:?}: {next:?}");
        seen[0] |= prev.inst.op.is_vector();
        let is_mem = matches!(next.inst.op, Op::Ld | Op::Sd);
        assert_eq!(next.mem.is_some(), is_mem, "after {prev:?}: {next:?}");
        seen[1] |= prev.mem.is_some_and(|m| !m.is_store) && !is_mem;
        seen[2] |= prev.mem.is_some_and(|m| m.is_store) && !is_mem;
        assert_eq!(next.trapped, next.inst.op == Op::Ecall, "after {prev:?}: {next:?}");
        seen[3] |= prev.trapped && !next.trapped && next.fetch_pa == next.pc;
    }
    assert_eq!(seen, [true; 4], "vector->scalar, load->alu, store->alu, trap->normal");
}

/// Translated user code: `fetch_pa` differs from `pc` in every record,
/// the trapping `ecall`'s included — the one arm where writing `pc`
/// into `fetch_pa` (what the untranslated fast path may do) is wrong.
/// User mode alone does not make a guest eligible for decoded blocks:
/// under Sv39 it stays on the reference path.
#[test]
fn translated_records_keep_fetch_pa_on_the_trap_arm() {
    use xt_emu::mmu::{pte, PageTableBuilder};
    use xt_isa::csr;
    const ALIAS: u64 = 0x4000_0000; // 1 GiB user window onto text + data
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    a.li(Gpr::A0, 7); // M-mode trap handler, untranslated
    a.halt();
    a.bind(main).unwrap();
    let user = a.pc() - xt_asm::DEFAULT_TEXT_BASE;
    a.ld(Gpr::A2, Gpr::A1, 0);
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.ecall();
    let cell = a.data_u64("cell", &[41]);
    let p = a.finish().unwrap();
    let d = assert_drains_agree(
        || {
            let mut emu = loaded(&p);
            let mut pt = PageTableBuilder::new(&mut emu.mem, 0x10_0000);
            let perms = pte::R | pte::W | pte::X | pte::U;
            pt.map(&mut emu.mem, ALIAS, xt_asm::DEFAULT_TEXT_BASE, 2, perms);
            let satp = csr::satp::pack(csr::satp::MODE_SV39, 0, pt.root_ppn());
            emu.cpu.write_csr(csr::SATP, satp);
            emu.cpu.write_csr(csr::MTVEC, xt_asm::DEFAULT_TEXT_BASE + 4);
            emu.cpu.mode = xt_emu::PrivMode::User;
            emu.cpu.pc = ALIAS + user;
            // decoy code where the PC points if read as a physical address:
            // what an engine that took this fetch for untranslated would run
            for k in 0..3 {
                emu.mem.write_u32(ALIAS + user + 4 * k, addi_word(Gpr::A3, 77));
            }
            emu.cpu.wx(Gpr::A1.index(), ALIAS + (cell - xt_asm::DEFAULT_TEXT_BASE));
            emu
        },
        "user alias",
    );
    assert_eq!(d.exit_code, Some(7));
    let pa_of = |va: u64| va - ALIAS + xt_asm::DEFAULT_TEXT_BASE;
    for r in &d.recs[..3] {
        assert_eq!(r.fetch_pa, pa_of(r.pc), "{r:?}");
    }
    let load = d.recs[0].mem.expect("ld");
    assert_eq!((load.paddr, load.vaddr), (cell, ALIAS + (cell - xt_asm::DEFAULT_TEXT_BASE)));
    assert!(d.recs[2].trapped && d.recs[2].inst.op == Op::Ecall);
    assert!(!d.recs[3].trapped && d.recs[3].fetch_pa == d.recs[3].pc);
}

// ---------------------------------------------------------------------
// the top of the address space: accesses wrap, on both engines and in
// both build profiles (a debug build used to panic, release to wrap)
// ---------------------------------------------------------------------

/// `sd a1, -4(zero)` puts four bytes at `!0 - 3..` and four at `0..`;
/// the load back sees all eight.
#[test]
fn store_straddling_the_top_of_the_address_space_wraps() {
    let mut a = Asm::new();
    a.li(Gpr::A1, 0x1122_3344_5566_7788);
    a.sd(Gpr::A1, Gpr::ZERO, -4);
    a.ld(Gpr::A0, Gpr::ZERO, -4);
    a.halt();
    let p = a.finish().unwrap();
    let fast = assert_fast_equals_slow(&p, "wrapping store");
    assert_eq!(fast.halted, Some(0x1122_3344_5566_7788));
    assert_eq!(fast.mem.read_u32(0), 0x1122_3344);
    assert_eq!(fast.mem.read_u32(u64::MAX - 3), 0x5566_7788);
    let d = assert_drains_agree(|| loaded(&p), "wrapping store");
    let store = d.recs.iter().find_map(|r| r.mem.filter(|m| m.is_store)).unwrap();
    assert_eq!((store.paddr, store.size), (u64::MAX - 3, 8));
}

/// Code on the last page: the block builder's page-end arithmetic must
/// not overflow, and the block ends with the page.
#[test]
fn code_on_the_top_page_executes_from_cached_blocks() {
    let word = |i: Inst| xt_isa::encode::encode(&i).unwrap() as i64;
    let mut a = Asm::new();
    a.li(Gpr::T0, -4096);
    a.li(Gpr::T1, word(Inst::new(Op::Addi).rd(Gpr::A0.index()).rs1(0).imm(7)));
    a.sw(Gpr::T1, Gpr::T0, 0);
    a.li(Gpr::T1, word(Inst::new(Op::Jalr).rd(0).rs1(Gpr::RA.index())));
    a.sw(Gpr::T1, Gpr::T0, 4);
    a.jalr(Gpr::RA, Gpr::T0, 0);
    a.halt();
    let p = a.finish().unwrap();
    let fast = assert_fast_equals_slow(&p, "top page");
    assert_eq!(fast.halted, Some(7));
    assert_drains_agree(|| loaded(&p), "top page");
}

// ---------------------------------------------------------------------
// the jump table, the page memo and the store-free loop
// ---------------------------------------------------------------------

/// An emulator with `p` loaded and the fast path `on` or off.
fn loaded_with(p: &Program, on: bool) -> Emulator {
    let mut emu = Emulator::new();
    emu.set_fastpath(on);
    emu.load(p);
    emu
}

/// Retires up to `n` instructions, one-record fills or one `run`,
/// stopping early at the halt.
fn retire_up_to(trace: &mut TraceSource, n: u64, by_step: bool) {
    if by_step {
        for _ in 0..n {
            if pull(trace).is_none() {
                return;
            }
        }
    } else if let Err(e) = trace.emulator_mut().run(n) {
        assert_eq!(e, ExecError::OutOfFuel);
    }
}

/// What drops every block on `f`'s page while `f`'s jump-table entry
/// stays behind.
#[derive(Clone, Copy, Debug)]
enum Dropper {
    /// The loop stores a new `li` over `f`.
    GuestStore,
    /// `apply_external_store`, the cluster barrier's path, does.
    ExternalStore,
    /// `set_fastpath(false)`, then `true`.
    Toggle,
    /// `load` of a second program.
    Load,
    /// Restoring a frame of a second program.
    Restore,
}

/// `f` (`li a4, k; ret`) shares page 0 with the entry jump only; page 1
/// holds a sled of 64 `nop`s ending in `ret`, then the main loop. Every
/// iteration calls `f`, adds `a4` into the exit code, and enters the
/// sled at a new offset: a block never built before, which takes the
/// slot a dropped block left free. With `patch`, the loop then stores a
/// new immediate over `f`'s `li`, so the next call meets `f`'s slot
/// dead. Returns the program and the address of that `li`.
fn sled_program(k: i64, patch: bool) -> (Program, u64) {
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    let (f, f_site) = (a.here(), a.pc());
    a.li(Gpr::A4, k);
    a.ret();
    while a.pc() < xt_asm::DEFAULT_TEXT_BASE + 4096 {
        a.nop();
    }
    let sled = a.pc();
    for _ in 0..64 {
        a.nop();
    }
    a.ret();
    a.bind(main).unwrap();
    a.li(Gpr::T2, 40);
    let top = a.here();
    a.call(f);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.slli(Gpr::T0, Gpr::T2, 2);
    a.li(Gpr::T1, sled as i64);
    a.add(Gpr::T0, Gpr::T0, Gpr::T1);
    a.jalr(Gpr::RA, Gpr::T0, 0);
    if patch {
        a.li(Gpr::T0, f_site as i64);
        a.li(Gpr::T1, addi_word(Gpr::A4, 100) as i64);
        a.slli(Gpr::T3, Gpr::T2, 20);
        a.add(Gpr::T1, Gpr::T1, Gpr::T3);
        a.sw(Gpr::T1, Gpr::T0, 0);
    }
    a.addi(Gpr::T2, Gpr::T2, -1);
    a.bnez(Gpr::T2, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    (a.finish().unwrap(), f_site)
}

/// A block in the jump table, dropped mid-loop in each of the five ways
/// a block dies, must be looked up afresh: a stale entry followed would
/// run whatever block took its slot, or a dead slot's empty entries.
/// Driven by one-record fills (the cursor-miss lookup) and by `run`.
#[test]
fn a_dropped_block_never_comes_back_through_the_jump_table() {
    use xt_snapshot::SnapshotState;
    for how in [
        Dropper::GuestStore,
        Dropper::ExternalStore,
        Dropper::Toggle,
        Dropper::Load,
        Dropper::Restore,
    ] {
        let (p, f_site) = sled_program(1, matches!(how, Dropper::GuestStore));
        let (second, _) = sled_program(2, false);
        let mut frame = xt_snapshot::Enc::new();
        loaded(&second).save(&mut frame);
        for by_step in [true, false] {
            let ctx = format!("{how:?}, by {}", if by_step { "step" } else { "run" });
            let mut traces =
                [true, false].map(|on| TraceSource::new(loaded_with(&p, on), u64::MAX));
            for trace in &mut traces {
                for round in 0..3 {
                    retire_up_to(trace, 150, by_step);
                    let emu = trace.emulator_mut();
                    match how {
                        Dropper::GuestStore => {}
                        Dropper::ExternalStore => {
                            let word = addi_word(Gpr::A4, 10 + round);
                            emu.apply_external_store(f_site, word as u64, 4)
                        }
                        Dropper::Toggle => {
                            if emu.fastpath() {
                                emu.set_fastpath(false);
                                emu.set_fastpath(true);
                            }
                        }
                        Dropper::Load => emu.load(&second),
                        Dropper::Restore => {
                            let mut d = xt_snapshot::Dec::new(frame.bytes());
                            emu.restore(&mut d).unwrap();
                        }
                    }
                }
                retire_up_to(trace, FUEL, by_step);
            }
            let [fast, slow] = traces.each_mut().map(TraceSource::emulator_mut);
            assert!(fast.halted.is_some(), "{ctx}: no halt");
            assert_same_state(fast, slow, &ctx);
            let stats = fast.cache_stats();
            assert!(stats.blocks_invalidated >= 3, "{ctx}: every round dropped blocks: {stats:?}");
        }
    }
}

/// Returns the doubleword at the start of its data section, `v`.
fn data_reader(v: u64) -> Program {
    let mut a = Asm::new();
    let cell = a.data_u64("cell", &[v]);
    a.la(Gpr::A1, cell);
    a.ld(Gpr::A0, Gpr::A1, 0);
    a.halt();
    a.finish().unwrap()
}

/// A page memo warmed on the data page, then a restore that rebuilds the
/// frame arena in another order (a page between text and data puts the
/// data page on another frame) and a `load` that rewrites the page: each
/// read sees the new bytes.
#[test]
fn a_warm_page_memo_reads_restored_and_reloaded_pages() {
    use xt_snapshot::SnapshotState;
    let mut other = loaded(&data_reader(0x2222));
    other.mem.write_u64(xt_asm::DEFAULT_TEXT_BASE + 4096, 0xBAD);
    let mut frame = xt_snapshot::Enc::new();
    other.save(&mut frame);
    for on in [true, false] {
        let ctx = format!("fast path {on}");
        let mut warm = loaded_with(&data_reader(0x1111), on);
        assert_eq!(warm.run(FUEL), Ok(0x1111), "{ctx}");
        warm.restore(&mut xt_snapshot::Dec::new(frame.bytes())).unwrap();
        assert_eq!(warm.mem.read_u64(xt_asm::DEFAULT_DATA_BASE), 0x2222, "{ctx}");
        let mut cold = Emulator::new();
        cold.set_fastpath(false);
        cold.restore(&mut xt_snapshot::Dec::new(frame.bytes())).unwrap();
        assert_eq!(warm.run(FUEL), Ok(0x2222), "{ctx}: restored");
        assert_eq!(cold.run(FUEL), Ok(0x2222), "{ctx}: restored");
        assert_same_state(&mut warm, &mut cold, &format!("{ctx}, restored"));
        let third = data_reader(0x3333);
        for emu in [&mut warm, &mut cold] {
            emu.load(&third);
            emu.halted = None;
        }
        assert_eq!(warm.run(FUEL), Ok(0x3333), "{ctx}: reloaded");
        assert_eq!(cold.run(FUEL), Ok(0x3333), "{ctx}: reloaded");
        assert_same_state(&mut warm, &mut cold, &format!("{ctx}, reloaded"));
    }
}

/// `run(n)` for every `n` up to past the halt, fast against reference:
/// the same outcome (`OutOfFuel` or `Halted`) and the same state, so a
/// block entered with less fuel than it has entries stops on time.
fn assert_every_fuel_agrees(p: &Program, setup: impl Fn(&mut Emulator), ctx: &str) {
    let mut whole = loaded_with(p, false);
    setup(&mut whole);
    whole.run(FUEL).unwrap();
    for n in 0..=whole.cpu.instret + 2 {
        let mut emus = [true, false].map(|on| loaded_with(p, on));
        emus.iter_mut().for_each(&setup);
        let [fast, slow] = &mut emus;
        assert_eq!(fast.run(n), slow.run(n), "{ctx}: run({n})");
        assert_same_state(fast, slow, &format!("{ctx}: run({n})"));
    }
}

/// Store-free blocks of eight ALU ops, looped, then the halt.
#[test]
fn run_fuel_ending_inside_a_store_free_block_matches_the_reference() {
    let mut a = Asm::new();
    a.li(Gpr::T2, 3);
    let top = a.here();
    for k in 1..=8 {
        a.addi(Gpr::A0, Gpr::A0, k);
    }
    a.addi(Gpr::T2, Gpr::T2, -1);
    a.bnez(Gpr::T2, top);
    a.halt();
    let p = a.finish().unwrap();
    assert_every_fuel_agrees(&p, |_| {}, "ALU loop");
}

/// A vector load with `vill` set traps in the middle of a store-free
/// block; the handler counts the trap and returns past the load.
#[test]
fn a_load_trapping_inside_a_store_free_block_matches_the_reference() {
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    a.csrr(Gpr::A5, xt_isa::csr::MEPC);
    a.addi(Gpr::A5, Gpr::A5, 4);
    a.csrw(xt_isa::csr::MEPC, Gpr::A5);
    a.addi(Gpr::A6, Gpr::A6, 1);
    a.mret();
    a.bind(main).unwrap();
    a.li(Gpr::T0, xt_asm::DEFAULT_TEXT_BASE as i64 + 4);
    a.csrw(xt_isa::csr::MTVEC, Gpr::T0);
    let cell = a.data_zeros("cell", 64);
    a.la(Gpr::A1, cell);
    a.li(Gpr::T2, 3);
    let top = a.here();
    a.addi(Gpr::A0, Gpr::A0, 1);
    a.addi(Gpr::A0, Gpr::A0, 2);
    a.vle(xt_isa::reg::Vr::new(1), Gpr::A1);
    a.addi(Gpr::A0, Gpr::A0, 3);
    a.addi(Gpr::A0, Gpr::A0, 4);
    a.addi(Gpr::T2, Gpr::T2, -1);
    a.bnez(Gpr::T2, top);
    a.add(Gpr::A0, Gpr::A0, Gpr::A6);
    a.halt();
    let p = a.finish().unwrap();
    let vill = |emu: &mut Emulator| emu.cpu.vtype.vill = true;
    assert_every_fuel_agrees(&p, vill, "trapping vle");
    let mut emu = loaded_with(&p, true);
    vill(&mut emu);
    assert_eq!(emu.run(FUEL), Ok(3 * 10 + 3), "three traps taken and returned from");
}

/// An AMO is the one store an otherwise store-free block can hold. One
/// that halts the guest and one that rewrites the next instruction must
/// both end the block where the reference ends it.
#[test]
fn an_amo_halts_and_patches_its_own_block_like_any_store() {
    let mut a = Asm::new();
    let end = a.new_label();
    a.li(Gpr::T0, xt_asm::HALT_ADDR as i64);
    a.li(Gpr::A0, 9);
    a.amoswap_w(Gpr::ZERO, Gpr::A0, Gpr::T0);
    a.addi(Gpr::A1, Gpr::A1, 1);
    a.addi(Gpr::A1, Gpr::A1, 2);
    a.jump(end);
    a.bind(end).unwrap();
    a.halt();
    let p = a.finish().unwrap();
    let fast = assert_fast_equals_slow(&p, "halting AMO");
    assert_eq!((fast.halted, fast.cpu.x[11]), (Some(9), 0), "nothing ran past the halt");

    // the AMO stores to `site`; returns the program and where the
    // instruction after the AMO landed
    let patching = |site: u64| {
        let mut a = Asm::new();
        let end = a.new_label();
        a.li(Gpr::T0, site as i64);
        a.li(Gpr::T1, addi_word(Gpr::A0, 77) as i64);
        a.amoswap_w(Gpr::ZERO, Gpr::T1, Gpr::T0);
        let next = a.pc();
        a.addi(Gpr::A0, Gpr::ZERO, 1);
        a.jump(end);
        a.bind(end).unwrap();
        a.halt();
        (a.finish().unwrap(), next)
    };
    let (_, site) = patching(xt_asm::DEFAULT_TEXT_BASE + 16);
    let (p, next) = patching(site);
    assert_eq!(next, site, "the AMO stores over the instruction after it");
    let fast = assert_fast_equals_slow(&p, "patching AMO");
    assert_eq!(fast.halted, Some(77), "the patched word ran");
    assert_drains_agree(|| loaded(&p), "patching AMO");
}
