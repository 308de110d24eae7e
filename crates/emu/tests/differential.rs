//! Differential property tests: random arithmetic programs executed by
//! the emulator must match the same computation done in host Rust, on
//! both engines ([`xt_emu::run_both_engines`]).
//!
//! Ported from proptest to the in-tree `xt-harness` engine. Default
//! seed for this suite: `0xD1FF_0001` (fixed); override or replay with
//! `XT_HARNESS_SEED=<seed> cargo test`. On failure the runner shrinks
//! the operand tuple toward zero and prints the minimal counterexample.
//! Runs 64 cases per property, matching the original
//! `ProptestConfig::with_cases(64)`.

use xt_harness::gen;
use xt_harness::prop::{check_with, Config};
use xt_asm::{Asm, Program};
use xt_emu::run_both_engines;
use xt_isa::reg::Gpr;

fn exec_binop(op: &str, a: i64, b: i64) -> u64 {
    let mut asm = Asm::new();
    asm.li(Gpr::A1, a);
    asm.li(Gpr::A2, b);
    match op {
        "add" => asm.add(Gpr::A0, Gpr::A1, Gpr::A2),
        "sub" => asm.sub(Gpr::A0, Gpr::A1, Gpr::A2),
        "mul" => asm.mul(Gpr::A0, Gpr::A1, Gpr::A2),
        "mulh" => asm.mulh(Gpr::A0, Gpr::A1, Gpr::A2),
        "div" => asm.div(Gpr::A0, Gpr::A1, Gpr::A2),
        "rem" => asm.rem(Gpr::A0, Gpr::A1, Gpr::A2),
        "and" => asm.and_(Gpr::A0, Gpr::A1, Gpr::A2),
        "or" => asm.or_(Gpr::A0, Gpr::A1, Gpr::A2),
        "xor" => asm.xor_(Gpr::A0, Gpr::A1, Gpr::A2),
        "sltu" => asm.sltu(Gpr::A0, Gpr::A1, Gpr::A2),
        "addw" => asm.addw(Gpr::A0, Gpr::A1, Gpr::A2),
        "subw" => asm.subw(Gpr::A0, Gpr::A1, Gpr::A2),
        "mulw" => asm.mulw(Gpr::A0, Gpr::A1, Gpr::A2),
        "sll" => asm.sll(Gpr::A0, Gpr::A1, Gpr::A2),
        "srl" => asm.srl(Gpr::A0, Gpr::A1, Gpr::A2),
        "sra" => asm.sra(Gpr::A0, Gpr::A1, Gpr::A2),
        "sllw" => asm.sllw(Gpr::A0, Gpr::A1, Gpr::A2),
        "srlw" => asm.srlw(Gpr::A0, Gpr::A1, Gpr::A2),
        "sraw" => asm.sraw(Gpr::A0, Gpr::A1, Gpr::A2),
        "divu" => asm.divu(Gpr::A0, Gpr::A1, Gpr::A2),
        "remu" => asm.remu(Gpr::A0, Gpr::A1, Gpr::A2),
        "divuw" => asm.divuw(Gpr::A0, Gpr::A1, Gpr::A2),
        "remuw" => asm.remuw(Gpr::A0, Gpr::A1, Gpr::A2),
        _ => unreachable!(),
    };
    asm.halt();
    run(&asm.finish().unwrap())
}

/// Runs `p` on both engines and returns its exit code.
fn run(p: &Program) -> u64 {
    let [emu, _] = run_both_engines(p, 1000, |_| {}).unwrap_or_else(|e| panic!("{e}"));
    emu.halted.expect("halts")
}

fn host_binop(op: &str, a: i64, b: i64) -> u64 {
    let (ua, ub) = (a as u64, b as u64);
    match op {
        "add" => ua.wrapping_add(ub),
        "sub" => ua.wrapping_sub(ub),
        "mul" => ua.wrapping_mul(ub),
        "mulh" => (((a as i128) * (b as i128)) >> 64) as u64,
        "div" => {
            if b == 0 {
                u64::MAX
            } else if a == i64::MIN && b == -1 {
                i64::MIN as u64
            } else {
                (a / b) as u64
            }
        }
        "rem" => {
            if b == 0 {
                a as u64
            } else if a == i64::MIN && b == -1 {
                0
            } else {
                (a % b) as u64
            }
        }
        "and" => ua & ub,
        "or" => ua | ub,
        "xor" => ua ^ ub,
        "sltu" => (ua < ub) as u64,
        "addw" => ua.wrapping_add(ub) as u32 as i32 as i64 as u64,
        "subw" => ua.wrapping_sub(ub) as u32 as i32 as i64 as u64,
        "mulw" => ua.wrapping_mul(ub) as u32 as i32 as i64 as u64,
        // RV64I shifts use only the low 6 (or 5 for *w) bits of rs2
        "sll" => ua << (ub & 63),
        "srl" => ua >> (ub & 63),
        "sra" => (a >> (ub & 63)) as u64,
        "sllw" => ((ua as u32) << (ub & 31)) as i32 as i64 as u64,
        "srlw" => ((ua as u32) >> (ub & 31)) as i32 as i64 as u64,
        "sraw" => ((a as i32) >> (ub & 31)) as i64 as u64,
        // unsigned div/rem by zero: all-ones / dividend (RISC-V M-spec)
        "divu" => ua.checked_div(ub).unwrap_or(u64::MAX),
        "remu" => ua.checked_rem(ub).unwrap_or(ua),
        "divuw" => {
            let (a32, b32) = (ua as u32, ub as u32);
            a32.checked_div(b32).unwrap_or(u32::MAX) as i32 as i64 as u64
        }
        "remuw" => {
            let (a32, b32) = (ua as u32, ub as u32);
            a32.checked_rem(b32).unwrap_or(a32) as i32 as i64 as u64
        }
        _ => unreachable!(),
    }
}

const OPS: &[&str] = &[
    "add", "sub", "mul", "mulh", "div", "rem", "and", "or", "xor", "sltu", "addw", "subw", "mulw",
    "sll", "srl", "sra", "sllw", "srlw", "sraw", "divu", "remu", "divuw", "remuw",
];

const SEED: u64 = 0xD1FF_0001;

fn cfg() -> Config {
    Config::seeded_cases(SEED, 64)
}

#[test]
fn binop_matches_host() {
    let g = (gen::ints(0usize..OPS.len()), gen::any::<i64>(), gen::any::<i64>());
    check_with(&cfg(), "binop_matches_host", &g, |&(opi, a, b)| {
        let op = OPS[opi];
        assert_eq!(exec_binop(op, a, b), host_binop(op, a, b), "op {}", op);
    });
}

#[test]
fn binop_edge_cases() {
    let g = gen::ints(0usize..OPS.len());
    check_with(&cfg(), "binop_edge_cases", &g, |&opi| {
        let op = OPS[opi];
        // b covers: div-by-zero, i64::MIN / -1, shamts at/over width
        // (63, 64, 65 exercise the &63 / &31 masking), and u32 edges.
        for a in [0i64, 1, -1, i64::MIN, i64::MAX, 0x8000_0000, u32::MAX as i64] {
            for b in [0i64, 1, -1, i64::MIN, i64::MAX, -0x8000_0000, 31, 32, 63, 64, 65] {
                assert_eq!(exec_binop(op, a, b), host_binop(op, a, b),
                    "op {} a {} b {}", op, a, b);
            }
        }
    });
}

#[test]
fn li_materializes_exactly() {
    check_with(&cfg(), "li_materializes_exactly", &gen::any::<i64>(), |&v| {
        let mut asm = Asm::new();
        asm.li(Gpr::A0, v);
        asm.halt();
        let p = asm.finish().unwrap();
        assert_eq!(run(&p), v as u64);
    });
}

#[test]
fn shifts_match_host() {
    let g = (gen::any::<i64>(), gen::ints(0i64..64));
    check_with(&cfg(), "shifts_match_host", &g, |&(a, sh)| {
        let mut asm = Asm::new();
        asm.li(Gpr::A1, a);
        asm.slli(Gpr::A2, Gpr::A1, sh);
        asm.srli(Gpr::A3, Gpr::A1, sh);
        asm.srai(Gpr::A4, Gpr::A1, sh);
        asm.xor_(Gpr::A0, Gpr::A2, Gpr::A3);
        asm.xor_(Gpr::A0, Gpr::A0, Gpr::A4);
        asm.halt();
        let p = asm.finish().unwrap();
        let expect = ((a as u64) << sh) ^ ((a as u64) >> sh) ^ ((a >> sh) as u64);
        assert_eq!(run(&p), expect);
    });
}

#[test]
fn memory_byte_halfword_sign_extension() {
    check_with(
        &cfg(),
        "memory_byte_halfword_sign_extension",
        &gen::any::<i64>(),
        |&v| {
            let mut asm = Asm::new();
            let buf = asm.data_zeros("buf", 16);
            asm.la(Gpr::A1, buf);
            asm.li(Gpr::A2, v);
            asm.sd(Gpr::A2, Gpr::A1, 0);
            asm.lb(Gpr::A3, Gpr::A1, 0);
            asm.lhu(Gpr::A4, Gpr::A1, 0);
            asm.lw(Gpr::A5, Gpr::A1, 0);
            asm.add(Gpr::A0, Gpr::A3, Gpr::A4);
            asm.add(Gpr::A0, Gpr::A0, Gpr::A5);
            asm.halt();
            let p = asm.finish().unwrap();
            let expect = ((v as i8 as i64 as u64)
                .wrapping_add(v as u16 as u64))
                .wrapping_add(v as i32 as i64 as u64);
            assert_eq!(run(&p), expect);
        },
    );
}

#[test]
fn custom_ext_matches_manual_shift_mask() {
    let g = (gen::any::<u64>(), gen::ints(0u32..64), gen::ints(0u32..64));
    check_with(
        &cfg(),
        "custom_ext_matches_manual_shift_mask",
        &g,
        |&(v, msb, lsb)| {
            let (hi, lo) = (msb.max(lsb), msb.min(lsb));
            let mut asm = Asm::new();
            asm.li(Gpr::A1, v as i64);
            asm.xextu(Gpr::A0, Gpr::A1, hi, lo);
            asm.halt();
            let p = asm.finish().unwrap();
            let width = hi - lo + 1;
            let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
            assert_eq!(run(&p), (v >> lo) & mask);
        },
    );
}
