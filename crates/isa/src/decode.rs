//! Binary instruction decoding, from the op table ([`crate::op`]).
//!
//! Which bits the decoder reads: the opcode (bits 6:0) and funct3
//! (14:12) pick a group of rows; a row matches when the word's bits under
//! its format's mask equal the row's fixed bits; the operands are the
//! fields the format names.
//! Every other bit is ignored, so a word [`crate::encode`] never writes
//! can decode: `jalr` ignores funct3, `slli`/`srli` (and `x.tst`/`x.srri`)
//! ignore imm\[11:6\] (`srai` reads bit 30), `slliw`/`srliw` ignore funct7
//! (`sraiw` needs its exact funct7), `fence`/`fence.i` ignore everything
//! but opcode and funct3, AMOs ignore aq/rl, fused multiply-adds the
//! rounding mode, `lr` and `vle.v`/`vse.v` the rs2 field, `sfence.vma`
//! the rd field, and `vsetvl` bits 30:25. OP-V words must have vm = 1:
//! the vector subset is unmasked. Decoding the encoder's output gives back
//! the encoded instruction.

use crate::format::{sext, Format};
use crate::inst::Inst;
use crate::op::{Op, ROWS};

/// Error returned for an unrecognized or malformed encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The raw instruction word.
    pub word: u32,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illegal instruction {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// The bits that pick a decode group: funct3 (14:12) and the major
/// opcode (6:0), as the group index `funct3 << 7 | opcode`.
const GROUP_BITS: u32 = 0x707f;

fn group_of(w: u32) -> usize {
    ((w >> 5 & 0x380) | (w & 0x7f)) as usize
}

/// Whether row `i` can match a word of group `g`: its fixed bits agree
/// with the group's bits wherever its mask reads them (a row that does
/// not read funct3 sits in all eight groups of its opcode).
const fn in_group(i: usize, g: u32) -> bool {
    let w = (g & 0x7f) | (g >> 7) << 12;
    (w ^ ROWS[i].bits) & ROWS[i].format.mask & GROUP_BITS == 0
}

/// `GROUPS[g]`: the range of group `g` in [`BY_GROUP`].
static GROUPS: [(u16, u16); 1024] = {
    let mut groups = [(0, 0); 1024];
    let (mut n, mut g) = (0, 0);
    while g < 1024 {
        let start = n;
        let mut i = 0;
        while i < ROWS.len() {
            n += in_group(i, g as u32) as usize;
            i += 1;
        }
        groups[g] = (start as u16, n as u16);
        g += 1;
    }
    groups
};

const ENTRIES: usize = GROUPS[1023].1 as usize;

/// The op table's rows as `(mask, fixed bits, op, format)`, grouped by
/// [`group_of`], each group in the order [`decode`] tries them: a row
/// whose mask reads more bits first (table order among equals), so
/// `srai` is tried before `srli` and `sraiw` before `srliw`, whose masks
/// are subsets of theirs.
static BY_GROUP: [(u32, u32, Op, &Format); ENTRIES] = {
    let mut out = [(0u32, 0u32, Op::ALL[0], ROWS[0].format); ENTRIES];
    let (mut n, mut g) = (0, 0);
    while g < 1024 {
        let start = n;
        let mut i = 0;
        while i < ROWS.len() {
            if in_group(i, g) {
                let (mask, bits) = (ROWS[i].format.mask, ROWS[i].bits);
                // insertion sort by mask size, stable
                let mut at = n;
                while at > start && out[at - 1].0.count_ones() < mask.count_ones() {
                    out[at] = out[at - 1];
                    at -= 1;
                }
                out[at] = (mask, bits, Op::ALL[i], ROWS[i].format);
                n += 1;
            }
            i += 1;
        }
        g += 1;
    }
    out
};

/// Decodes a 32-bit instruction word: the first row of its group whose
/// masked bits equal the row's fixed bits, with the operands the row's
/// format reads.
///
/// # Errors
///
/// Returns [`DecodeError`] for encodings outside the implemented ISA.
pub fn decode(w: u32) -> Result<Inst, DecodeError> {
    let (start, end) = GROUPS[group_of(w)];
    for &(mask, bits, op, format) in &BY_GROUP[start as usize..end as usize] {
        if w & mask == bits {
            return Ok(format.unpack(op, w));
        }
    }
    Err(DecodeError { word: w })
}

/// Decodes a 16-bit compressed instruction into its expanded form
/// (`len` is set to 2).
///
/// # Errors
///
/// Returns [`DecodeError`] for unsupported compressed encodings.
pub fn decode_compressed(h: u16) -> Result<Inst, DecodeError> {
    use Op::*;
    let w = h as u32;
    let err = Err(DecodeError { word: w });
    let rd = (w >> 7 & 0x1f) as u8;
    let rs2 = (w >> 2 & 0x1f) as u8;
    let rdp = ((w >> 7 & 7) + 8) as u8;
    let rs2p = ((w >> 2 & 7) + 8) as u8;
    let inst = match (w & 3, w >> 13) {
        (1, 0) if rd == 0 => Inst::new(Addi), // c.nop
        (1, 0) => {
            let imm = sext(((w >> 12 & 1) << 5) | (w >> 2 & 0x1f), 6);
            Inst::new(Addi).rd(rd).rs1(rd).imm(imm)
        }
        (1, 1) if rd != 0 => {
            let imm = sext(((w >> 12 & 1) << 5) | (w >> 2 & 0x1f), 6);
            Inst::new(Addiw).rd(rd).rs1(rd).imm(imm)
        }
        (1, 2) if rd != 0 => {
            let imm = sext(((w >> 12 & 1) << 5) | (w >> 2 & 0x1f), 6);
            Inst::new(Addi).rd(rd).rs1(0).imm(imm)
        }
        (1, 4) => {
            let f2 = w >> 10 & 3;
            let shamt = (((w >> 12 & 1) << 5) | (w >> 2 & 0x1f)) as i64;
            match f2 {
                0 => Inst::new(Srli).rd(rdp).rs1(rdp).imm(shamt),
                1 => Inst::new(Srai).rd(rdp).rs1(rdp).imm(shamt),
                2 => {
                    let imm = sext(((w >> 12 & 1) << 5) | (w >> 2 & 0x1f), 6);
                    Inst::new(Andi).rd(rdp).rs1(rdp).imm(imm)
                }
                _ => {
                    let op = match (w >> 12 & 1, w >> 5 & 3) {
                        (0, 0) => Sub,
                        (0, 1) => Xor,
                        (0, 2) => Or,
                        (0, 3) => And,
                        (1, 0) => Subw,
                        (1, 1) => Addw,
                        _ => return err,
                    };
                    Inst::new(op).rd(rdp).rs1(rdp).rs2(rs2p)
                }
            }
        }
        (1, 5) => {
            // c.j
            let imm = sext(
                ((w >> 12 & 1) << 11)
                    | ((w >> 11 & 1) << 4)
                    | ((w >> 9 & 3) << 8)
                    | ((w >> 8 & 1) << 10)
                    | ((w >> 7 & 1) << 6)
                    | ((w >> 6 & 1) << 7)
                    | ((w >> 3 & 7) << 1)
                    | ((w >> 2 & 1) << 5),
                12,
            );
            Inst::new(Jal).rd(0).imm(imm)
        }
        (1, 6) | (1, 7) => {
            let imm = sext(
                ((w >> 12 & 1) << 8)
                    | ((w >> 10 & 3) << 3)
                    | ((w >> 5 & 3) << 6)
                    | ((w >> 3 & 3) << 1)
                    | ((w >> 2 & 1) << 5),
                9,
            );
            let op = if w >> 13 == 6 { Beq } else { Bne };
            Inst::new(op).rs1(rdp).rs2(0).imm(imm)
        }
        (2, 0) if rd != 0 => {
            let shamt = (((w >> 12 & 1) << 5) | (w >> 2 & 0x1f)) as i64;
            Inst::new(Slli).rd(rd).rs1(rd).imm(shamt)
        }
        (2, 4) => match (w >> 12 & 1, rd, rs2) {
            (0, r, 0) if r != 0 => Inst::new(Jalr).rd(0).rs1(r), // c.jr
            (0, r, s) if r != 0 && s != 0 => Inst::new(Add).rd(r).rs1(0).rs2(s), // c.mv
            (1, 0, 0) => Inst::new(Ebreak),
            (1, r, 0) if r != 0 => Inst::new(Jalr).rd(1).rs1(r), // c.jalr
            (1, r, s) if r != 0 && s != 0 => Inst::new(Add).rd(r).rs1(r).rs2(s),
            _ => return err,
        },
        (0, 2) => {
            // c.lw
            let imm = (((w >> 10 & 7) << 3) | ((w >> 6 & 1) << 2) | ((w >> 5 & 1) << 6)) as i64;
            Inst::new(Lw).rd(rs2p).rs1(rdp).imm(imm)
        }
        (0, 3) => {
            // c.ld
            let imm = (((w >> 10 & 7) << 3) | ((w >> 5 & 3) << 6)) as i64;
            Inst::new(Ld).rd(rs2p).rs1(rdp).imm(imm)
        }
        (0, 6) => {
            let imm = (((w >> 10 & 7) << 3) | ((w >> 6 & 1) << 2) | ((w >> 5 & 1) << 6)) as i64;
            Inst::new(Sw).rs1(rdp).rs2(rs2p).imm(imm)
        }
        (0, 7) => {
            let imm = (((w >> 10 & 7) << 3) | ((w >> 5 & 3) << 6)) as i64;
            Inst::new(Sd).rs1(rdp).rs2(rs2p).imm(imm)
        }
        _ => return err,
    };
    Ok(inst.with_len(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, encode_compressed};

    /// Two rows of a group that some word matches both of are ordered
    /// by mask containment, so the first match is the most specific one
    /// (`srai` before `srli`); and every row sits in some group.
    #[test]
    fn overlapping_rows_are_tried_most_specific_first() {
        for &(start, end) in &GROUPS {
            let group = &BY_GROUP[start as usize..end as usize];
            for (k, &(m1, b1, op1, _)) in group.iter().enumerate() {
                for &(m2, b2, op2, _) in &group[k + 1..] {
                    if (b1 ^ b2) & m1 & m2 == 0 {
                        assert!(m1 & m2 == m2 && m1 != m2, "{op1:?} and {op2:?} overlap");
                    }
                }
            }
        }
        for &op in Op::ALL {
            assert!(BY_GROUP.iter().any(|e| e.2 == op), "{op:?} in no group");
        }
    }

    #[test]
    fn decode_known_addi() {
        let i = decode(0x02A30293).unwrap();
        assert_eq!(i.op, Op::Addi);
        assert_eq!((i.rd, i.rs1, i.imm), (5, 6, 42));
    }

    #[test]
    fn illegal_rejected() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xffff_ffff).is_err());
    }

    #[test]
    fn negative_branch_offset() {
        let i = Inst::new(Op::Bne).rs1(10).rs2(11).imm(-8);
        let w = encode(&i).unwrap();
        let d = decode(w).unwrap();
        assert_eq!(d.imm, -8);
        assert_eq!(d.op, Op::Bne);
    }

    #[test]
    fn compressed_roundtrip_subset() {
        let cases = [
            Inst::new(Op::Addi).rd(8).rs1(8).imm(-4),
            Inst::new(Op::Add).rd(5).rs1(0).rs2(6),
            Inst::new(Op::Ld).rd(9).rs1(10).imm(16),
            Inst::new(Op::Sd).rs1(8).rs2(9).imm(24),
            Inst::new(Op::Beq).rs1(8).rs2(0).imm(-16),
            Inst::new(Op::Jal).rd(0).imm(-100),
        ];
        for c in cases {
            let h = encode_compressed(&c).unwrap_or_else(|| panic!("compress {c:?}"));
            let d = decode_compressed(h).unwrap();
            assert_eq!(d.with_len(4), c, "roundtrip {c:?}");
        }
    }

    #[test]
    fn vector_vv_roundtrip() {
        let i = Inst::new(Op::VaddVV).rd(1).rs1(2).rs2(3);
        let w = encode(&i).unwrap();
        assert_eq!(decode(w).unwrap(), i);
    }

    #[test]
    fn masked_op_v_words_do_not_decode() {
        // vadd.vv v1, v2, v3 with vm = 1, then vm = 0
        let i = Inst::new(Op::VaddVV).rd(1).rs1(2).rs2(3);
        assert_eq!(decode(0x022180d7), Ok(i));
        assert!(decode(0x002180d7).is_err());
        // every OP-V arithmetic op
        for &op in Op::ALL {
            let w = encode(&Inst::new(op)).unwrap();
            if w & 0x7f == 0x57 && w >> 12 & 7 != 7 {
                assert_eq!(w >> 25 & 1, 1, "{op:?} encodes vm = 1");
                assert!(decode(w & !(1 << 25)).is_err(), "{op:?} with vm = 0");
            }
        }
    }

    #[test]
    fn vector_mac_gets_rs3() {
        let i = Inst::new(Op::VmaccVV).rd(4).rs1(2).rs2(3).rs3(4);
        let w = encode(&i).unwrap();
        let d = decode(w).unwrap();
        assert_eq!(d.rs3, 4, "accumulator exposed as rs3");
    }

    #[test]
    fn custom_indexed_load_roundtrip() {
        let i = Inst::new(Op::XLrw).rd(10).rs1(11).rs2(12).imm(2);
        let w = encode(&i).unwrap();
        assert_eq!(decode(w).unwrap(), i);
    }

    #[test]
    fn custom_ext_roundtrip() {
        let imm = Inst::pack_ext_bounds(47, 16);
        let i = Inst::new(Op::XExtu).rd(1).rs1(2).imm(imm);
        let w = encode(&i).unwrap();
        let d = decode(w).unwrap();
        assert_eq!(d, i);
        assert_eq!(d.ext_bounds(), (47, 16));
    }
}
