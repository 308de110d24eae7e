//! Property tests: every encodable instruction decodes back to itself.
//!
//! Every op of `Op::ALL` is covered: each named test below takes the ops
//! whose format (`Op::format`) puts them in its part, and draws their
//! operands from that format.
//!
//! Ported from proptest to the in-tree `xt-harness` engine. Default
//! seed for this suite: `0x15A0_0001` (fixed, so runs are
//! deterministic); override or replay a failure with
//! `XT_HARNESS_SEED=<seed> cargo test`.

use xt_harness::gen;
use xt_harness::prop::{check_with, Config};
use xt_isa::encode::{encode, encode_compressed};
use xt_isa::format::Imm;
use xt_isa::{decode, decode_compressed, ExecClass, Inst, Op};

const SEED: u64 = 0x15A0_0001;

fn cfg() -> Config {
    Config::seeded(SEED)
}

/// Which of the named round-trip tests below covers `op`, from its row's
/// format (and class): every op falls in exactly one.
fn part(op: Op) -> &'static str {
    let f = op.format();
    let accumulates = f.regs[3] != 0 && f.regs[3] == f.regs[0];
    match f.imm {
        Imm::U => "u_type",
        Imm::J => "j_type",
        Imm::B => "b_type",
        Imm::S => "s_type",
        Imm::I => "i_type",
        _ if op.exec_class() == ExecClass::Csr => "csr",
        _ if op.is_vector() && accumulates => "vec_mac",
        _ if op.is_vector() => "vec_vv",
        Imm::Uimm { at: 25, .. } => "indexed_mem",
        Imm::Uimm { limit: 4096, .. } => "bitfield",
        Imm::Uimm { .. } => "shift",
        _ if f.regs[3] != 0 => "fma",
        _ => "r_type",
    }
}

const PARTS: &[&str] = &[
    "u_type",
    "j_type",
    "b_type",
    "s_type",
    "i_type",
    "csr",
    "vec_mac",
    "vec_vv",
    "indexed_mem",
    "bitfield",
    "shift",
    "fma",
    "r_type",
];

/// The instruction `op` encodes from drawn operands: a register in each
/// field its format encodes (an accumulator reads rd), and the immediate
/// stepped into the format's range.
fn drawn(op: Op, regs: [u8; 4], imm: u64) -> Inst {
    let f = op.format();
    let r = |k: usize| if f.regs[k] == 0 { 0 } else { regs[k] };
    let mut i = Inst::new(op).rd(r(0)).rs1(r(1)).rs2(r(2)).rs3(r(3));
    if f.regs[3] != 0 && f.regs[3] == f.regs[0] {
        i.rs3 = i.rd;
    }
    if let Some((lo, hi, step)) = f.imm.range() {
        let n = ((hi - lo) / step + 1) as u64;
        i.imm = lo + (imm % n) as i64 * step;
    }
    i
}

/// Every op of `part` (drawn from `Op::ALL`) decodes back to itself, at
/// random operands and at both ends of its immediate's range (every
/// range holds a power of two of values, so 0 and `u64::MAX` step to
/// its ends).
fn roundtrip(part_name: &'static str) {
    let ops: Vec<Op> = Op::ALL
        .iter()
        .copied()
        .filter(|&op| part(op) == part_name)
        .collect();
    assert!(!ops.is_empty(), "{part_name}: no op");
    let g = (
        [
            gen::ints(0u8..32),
            gen::ints(0u8..32),
            gen::ints(0u8..32),
            gen::ints(0u8..32),
        ],
        gen::any::<u64>(),
    );
    check_with(&cfg(), part_name, &g, |&(regs, imm)| {
        for &op in &ops {
            for imm in [imm, 0, u64::MAX] {
                let i = drawn(op, regs, imm);
                let w = encode(&i).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(decode(w), Ok(i), "{w:#010x}");
            }
        }
    });
}

#[test]
fn every_op_is_in_one_named_part() {
    for &op in Op::ALL {
        assert!(PARTS.contains(&part(op)), "{op:?}");
    }
    for name in PARTS {
        assert!(Op::ALL.iter().any(|&op| part(op) == *name), "{name}: no op");
    }
}

#[test]
fn r_type_roundtrip() {
    roundtrip("r_type");
}

#[test]
fn i_type_roundtrip() {
    roundtrip("i_type");
}

#[test]
fn s_type_roundtrip() {
    roundtrip("s_type");
}

#[test]
fn b_type_roundtrip() {
    roundtrip("b_type");
}

#[test]
fn u_type_roundtrip() {
    roundtrip("u_type");
}

#[test]
fn j_type_roundtrip() {
    roundtrip("j_type");
}

#[test]
fn shift_roundtrip() {
    roundtrip("shift");
}

#[test]
fn fma_roundtrip() {
    roundtrip("fma");
}

#[test]
fn csr_roundtrip() {
    roundtrip("csr");
}

#[test]
fn vec_vv_roundtrip() {
    roundtrip("vec_vv");
}

#[test]
fn vec_mac_roundtrip() {
    roundtrip("vec_mac");
}

#[test]
fn indexed_mem_roundtrip() {
    roundtrip("indexed_mem");
}

#[test]
fn bitfield_roundtrip() {
    roundtrip("bitfield");
}

#[test]
fn compressed_expansion_matches() {
    let g = (
        gen::ints(8u8..16),
        gen::ints(8u8..16),
        gen::ints(-32i64..32),
    );
    check_with(
        &cfg(),
        "compressed_expansion_matches",
        &g,
        |&(rd, rs1, imm)| {
            // Any instruction the compressor accepts must expand back to the
            // identical wide instruction.
            let candidates = [
                Inst::new(Op::Addi).rd(rd).rs1(rd).imm(imm),
                Inst::new(Op::Andi).rd(rd).rs1(rd).imm(imm),
                Inst::new(Op::Sub).rd(rd).rs1(rd).rs2(rs1),
                Inst::new(Op::Xor).rd(rd).rs1(rd).rs2(rs1),
                Inst::new(Op::Or).rd(rd).rs1(rd).rs2(rs1),
                Inst::new(Op::And).rd(rd).rs1(rd).rs2(rs1),
                Inst::new(Op::Addw).rd(rd).rs1(rd).rs2(rs1),
                Inst::new(Op::Subw).rd(rd).rs1(rd).rs2(rs1),
                Inst::new(Op::Lw)
                    .rd(rd)
                    .rs1(rs1)
                    .imm((imm.rem_euclid(32)) * 4),
                Inst::new(Op::Ld)
                    .rd(rd)
                    .rs1(rs1)
                    .imm((imm.rem_euclid(32)) * 8),
                Inst::new(Op::Beq).rs1(rs1).rs2(0).imm(imm * 2),
            ];
            for c in candidates {
                if let Some(h) = encode_compressed(&c) {
                    let d = decode_compressed(h).unwrap();
                    assert_eq!(d.with_len(4), c);
                }
            }
        },
    );
}
