//! Guest programs shared by more than one integration suite.

#![allow(dead_code)] // each suite uses its own subset

use xt_asm::{Asm, Program};
use xt_isa::encode::encode;
use xt_isa::reg::Gpr;
use xt_isa::{Inst, Op};

/// Encodes `addi rd, x0, k` — the canonical patch word (same 4-byte
/// shape as the `li rd, small` sites it overwrites; RVC is off).
pub fn addi_word(rd: Gpr, k: i64) -> u32 {
    encode(&Inst::new(Op::Addi).rd(rd.index()).rs1(0).imm(k)).unwrap()
}

/// Self-modifying single-core guests (`tests/smc.rs`): each stores a
/// freshly encoded instruction word over code the block cache has
/// already lowered, and exits with a sum that tells which word ran.
pub mod smc {
    use super::*;

    /// Iterations of [`own_page`].
    pub const OWN_PAGE_ITERS: u64 = 8;

    /// A loop that patches an instruction in its *own* body: iteration 1
    /// executes `li t3, 1`, every later iteration must execute the stored
    /// `addi t3, x0, 100`. Exits with `1 + (ITERS - 1) * 100`.
    pub fn own_page() -> Program {
        let mut a = Asm::new();
        a.li(Gpr::T1, OWN_PAGE_ITERS as i64);
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
        a.finish().unwrap()
    }

    /// The tightest window: the store's target is the very next
    /// sequential instruction, inside the same decoded block. Exits with
    /// 77 once the stored word ran.
    pub fn next_instruction() -> Program {
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
        loop {
            let (p, site) = build(guess);
            if site == guess {
                return p;
            }
            guess = site;
        }
    }

    /// Iterations of [`amo`].
    pub const AMO_ITERS: u64 = 6;

    /// `amoswap.w` as the patching store. Exits with
    /// `3 + (ITERS - 1) * 50`.
    pub fn amo() -> Program {
        let mut a = Asm::new();
        let scratch = a.data_zeros("scratch", 8);
        a.li(Gpr::T1, AMO_ITERS as i64);
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
        a.finish().unwrap()
    }

    /// Iterations of [`sc`].
    pub const SC_ITERS: u64 = 6;

    /// `lr.w`/`sc.w` as the patching store. Exits with
    /// `7 + (ITERS - 1) * 40` when every `sc.w` succeeded.
    pub fn sc() -> Program {
        let mut a = Asm::new();
        a.li(Gpr::T1, SC_ITERS as i64);
        let top = a.here();
        let site = a.pc();
        a.li(Gpr::T3, 7); // patched to addi t3, x0, 40 by the sc.w
        a.add(Gpr::A5, Gpr::A5, Gpr::T3);
        a.li(Gpr::T0, site as i64);
        a.li(Gpr::T2, addi_word(Gpr::T3, 40) as i64);
        a.lr_w(Gpr::A6, Gpr::T0);
        a.sc_w(Gpr::A7, Gpr::T2, Gpr::T0);
        // any failed SC poisons the sum so the caller's assert catches it
        a.add(Gpr::A5, Gpr::A5, Gpr::A7);
        a.addi(Gpr::T1, Gpr::T1, -1);
        a.bnez(Gpr::T1, top);
        a.mv(Gpr::A0, Gpr::A5);
        a.halt();
        a.finish().unwrap()
    }

    /// Iterations of [`fence_i`].
    pub const FENCE_I_ITERS: u64 = 5;

    /// Patch, then `fence.i`, then run the patched code. Exits with
    /// `9 + (ITERS - 1) * 60`.
    pub fn fence_i() -> Program {
        let mut a = Asm::new();
        a.li(Gpr::T1, FENCE_I_ITERS as i64);
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
        a.finish().unwrap()
    }

    /// Every guest above, named.
    pub fn all() -> Vec<(&'static str, Program)> {
        vec![
            ("smc/own-page", own_page()),
            ("smc/next-instruction", next_instruction()),
            ("smc/amo", amo()),
            ("smc/sc", sc()),
            ("smc/fence.i", fence_i()),
        ]
    }
}
