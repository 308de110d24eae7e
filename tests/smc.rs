//! Self-modifying-code torture suite for the decoded-block engine
//! (docs/FASTPATH.md).
//!
//! Every scenario stores freshly encoded instruction words over code the
//! block cache has already lowered — through plain stores, AMOs, LR/SC,
//! with and without `fence.i`, and from another core through the cluster
//! epoch barrier — and asserts the outcome is bit-identical to the
//! per-step-decode reference (`set_fastpath(false)`), i.e. that
//! invalidation is precise and the cache is architecturally invisible.

use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_emu::Emulator;
use xt_isa::encode::encode;
use xt_isa::reg::Gpr;
use xt_isa::{Inst, Op};
use xt_mem::MemConfig;
use xt_soc::ClusterSim;

const FUEL: u64 = 2_000_000;

/// Encodes `addi rd, x0, k` — the canonical patch word (same 4-byte
/// shape as the `li rd, small` sites it overwrites; RVC is off).
fn addi_word(rd: Gpr, k: i64) -> u32 {
    encode(&Inst::new(Op::Addi).rd(rd.index()).rs1(0).imm(k)).unwrap()
}

/// Runs `p` with the block cache on and off; asserts identical exit
/// code, registers, CSRs and memory, then returns the common exit code.
fn run_both(p: &Program, ctx: &str) -> u64 {
    let mut fast = Emulator::new();
    fast.set_fastpath(true);
    fast.load(p);
    let rf = fast.run(FUEL);
    let mut slow = Emulator::new();
    slow.set_fastpath(false);
    slow.load(p);
    let rs = slow.run(FUEL);
    assert_eq!(rf, rs, "{ctx}: run outcome");
    assert_eq!(fast.halted, slow.halted, "{ctx}: exit code");
    assert_eq!(fast.cpu.x, slow.cpu.x, "{ctx}: registers");
    assert_eq!(fast.cpu.csrs, slow.cpu.csrs, "{ctx}: CSRs");
    assert_eq!(fast.cpu.satp(), slow.cpu.satp(), "{ctx}: satp");
    assert_eq!(
        fast.mem.snapshot_nonzero(),
        slow.mem.snapshot_nonzero(),
        "{ctx}: memory"
    );
    let stats = fast.cache_stats();
    assert!(stats.blocks_built > 0, "{ctx}: fast path engaged ({stats:?})");
    fast.halted.unwrap_or_else(|| panic!("{ctx}: did not halt"))
}

/// A loop that patches an instruction in its *own* body: iteration 1
/// executes `li t3, 1`, every later iteration must execute the stored
/// `addi t3, x0, 100` — stale cached blocks would keep adding 1.
#[test]
fn store_to_own_page_takes_effect_next_iteration() {
    const ITERS: u64 = 8;
    let mut a = Asm::new();
    a.li(Gpr::T1, ITERS as i64);
    let top = a.here();
    let site = a.pc();
    a.li(Gpr::T3, 1); // patched to addi t3, x0, 100 during iteration 1
    a.add(Gpr::A5, Gpr::A5, Gpr::T3);
    a.li(Gpr::T0, site as i64);
    a.li(Gpr::T2, addi_word(Gpr::T3, 100) as i64);
    a.sw(Gpr::T2, Gpr::T0, 0);
    a.addi(Gpr::T1, Gpr::T1, -1);
    a.bnez(Gpr::T1, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    let p = a.finish().unwrap();
    let code = run_both(&p, "store-to-own-page");
    // iteration 1 adds the original 1; the remaining ITERS-1 add 100
    assert_eq!(code, 1 + (ITERS - 1) * 100, "patch visible from iteration 2");
}

/// The tightest possible window: the store's target is the very next
/// sequential instruction, inside the same decoded block. The engine
/// must notice its own block died mid-flight and re-decode immediately.
#[test]
fn store_to_next_instruction_executes_patched_word() {
    // The patch site's address feeds an `li` *before* the site exists,
    // so assemble to a fixed point (two passes: li length is stable for
    // same-page text addresses).
    let build = |site_guess: u64| -> (Program, u64) {
        let mut a = Asm::new();
        a.li(Gpr::T0, site_guess as i64);
        a.li(Gpr::T2, addi_word(Gpr::A0, 77) as i64);
        a.sw(Gpr::T2, Gpr::T0, 0);
        let site = a.pc();
        a.li(Gpr::A0, 1); // overwritten by the store one instruction earlier
        a.halt();
        (a.finish().unwrap(), site)
    };
    let mut guess = xt_asm::DEFAULT_TEXT_BASE;
    let p = loop {
        let (p, site) = build(guess);
        if site == guess {
            break p;
        }
        guess = site;
    };
    let code = run_both(&p, "store-to-next-instruction");
    assert_eq!(code, 77, "the freshly stored instruction executed");
}

/// `amoswap.w` as the patching store: AMO writes must invalidate cached
/// code exactly like plain stores.
#[test]
fn amo_write_to_code_invalidates() {
    const ITERS: u64 = 6;
    let mut a = Asm::new();
    let scratch = a.data_zeros("scratch", 8);
    a.li(Gpr::T1, ITERS as i64);
    let top = a.here();
    let site = a.pc();
    a.li(Gpr::T3, 3); // patched to addi t3, x0, 50 by the amoswap
    a.add(Gpr::A5, Gpr::A5, Gpr::T3);
    a.li(Gpr::T0, site as i64);
    a.li(Gpr::T2, addi_word(Gpr::T3, 50) as i64);
    a.amoswap_w(Gpr::A6, Gpr::T2, Gpr::T0); // a6 <- old word, code <- patch
    a.addi(Gpr::T1, Gpr::T1, -1);
    a.bnez(Gpr::T1, top);
    // prove the swap read back an instruction word: stash it in memory
    a.la(Gpr::T0, scratch);
    a.sd(Gpr::A6, Gpr::T0, 0);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    let p = a.finish().unwrap();
    let code = run_both(&p, "amo-to-code");
    assert_eq!(code, 3 + (ITERS - 1) * 50);
}

/// `lr.w`/`sc.w` as the patching store: a successful SC to a cached code
/// page must invalidate it.
#[test]
fn sc_write_to_code_invalidates() {
    const ITERS: u64 = 6;
    let mut a = Asm::new();
    a.li(Gpr::T1, ITERS as i64);
    let top = a.here();
    let site = a.pc();
    a.li(Gpr::T3, 7); // patched to addi t3, x0, 40 by the sc.w
    a.add(Gpr::A5, Gpr::A5, Gpr::T3);
    a.li(Gpr::T0, site as i64);
    a.li(Gpr::T2, addi_word(Gpr::T3, 40) as i64);
    a.lr_w(Gpr::A6, Gpr::T0);
    a.sc_w(Gpr::A7, Gpr::T2, Gpr::T0);
    // any failed SC poisons the sum so the assert below catches it
    a.add(Gpr::A5, Gpr::A5, Gpr::A7);
    a.addi(Gpr::T1, Gpr::T1, -1);
    a.bnez(Gpr::T1, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    let p = a.finish().unwrap();
    let code = run_both(&p, "sc-to-code");
    assert_eq!(code, 7 + (ITERS - 1) * 40, "every sc.w succeeded and patched");
}

/// The architectural idiom: patch, then `fence.i`, then run the patched
/// code. (The emulator's store-time invalidation makes every store
/// immediately visible to fetch — sequential SMC works even without
/// `fence.i`, matching the seed's per-step re-decode — but the fenced
/// idiom is the one real software uses and must keep working.)
#[test]
fn fence_i_publishes_patch() {
    const ITERS: u64 = 5;
    let mut a = Asm::new();
    a.li(Gpr::T1, ITERS as i64);
    let top = a.here();
    let site = a.pc();
    a.li(Gpr::T3, 9); // patched to addi t3, x0, 60
    a.add(Gpr::A5, Gpr::A5, Gpr::T3);
    a.li(Gpr::T0, site as i64);
    a.li(Gpr::T2, addi_word(Gpr::T3, 60) as i64);
    a.sw(Gpr::T2, Gpr::T0, 0);
    a.fence_i();
    a.addi(Gpr::T1, Gpr::T1, -1);
    a.bnez(Gpr::T1, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    let p = a.finish().unwrap();
    let code = run_both(&p, "fence.i");
    assert_eq!(code, 9 + (ITERS - 1) * 60);
}

/// Cross-core SMC through the epoch barrier: core 1 stores a patch word
/// into core 0's text page; the store becomes visible at a barrier and
/// must invalidate core 0's *replica* block cache (the receiving side),
/// not just the sender's. Core 0 sums a patchable constant in a long
/// loop, so the final sum proves the patch landed mid-run — and the
/// whole report must be identical with the fast path on and off.
#[test]
fn cross_core_store_to_code_through_barrier() {
    const ITERS: u64 = 20_000;

    // Core 0: sum `t3` ITERS times; t3 starts as li 1, patched to 101.
    let mut a = Asm::new();
    a.li(Gpr::T1, ITERS as i64);
    let top = a.here();
    let site = a.pc();
    a.li(Gpr::T3, 1);
    a.add(Gpr::A5, Gpr::A5, Gpr::T3);
    a.addi(Gpr::T1, Gpr::T1, -1);
    a.bnez(Gpr::T1, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    let p0 = a.finish().unwrap();

    // Core 1 (disjoint image): patch core 0's site, then exit.
    let mut b = Asm::new()
        .with_text_base(0x8010_0000)
        .with_data_base(0x8410_0000);
    b.li(Gpr::T0, site as i64);
    b.li(Gpr::T2, addi_word(Gpr::T3, 101) as i64);
    b.sw(Gpr::T2, Gpr::T0, 0);
    b.li(Gpr::A0, 0);
    b.halt();
    let p1 = b.finish().unwrap();

    let build = |fast: bool| {
        let progs = vec![p0.clone(), p1.clone()];
        let mem_cfg = MemConfig {
            cores: progs.len(),
            ..MemConfig::default()
        };
        ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, FUEL)
            .with_epoch(4096)
            .with_fastpath(fast)
    };

    let fast = build(true).run_threads(2);
    let slow = build(false).run_threads(2);
    assert_eq!(fast.exit_codes, slow.exit_codes, "exit codes");
    assert_eq!(fast.cores, slow.cores, "per-core perf counters");
    assert_eq!(fast.mem, slow.mem, "memory-system stats");

    // the patch landed strictly mid-loop: some iterations saw 1, some 101
    let sum = fast.exit_codes[0].expect("core 0 halted");
    assert!(sum > ITERS, "patch became visible before the loop ended: {sum}");
    assert!(sum < ITERS * 101, "loop started before the patch arrived: {sum}");

    // determinism is unaffected by caching: threaded == sequential
    let seq = build(true).run_sequential();
    assert_eq!(seq.exit_codes, fast.exit_codes, "sequential vs threaded (fast)");
    assert_eq!(seq.cores, fast.cores, "sequential vs threaded counters");
}
