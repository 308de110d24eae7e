//! Binary instruction encoding.
//!
//! Standard RV64IMAFDC instructions use the RISC-V spec's bit layouts. The
//! vector subset follows the broad OP-V layout of RVV 0.7.1 (funct6 |
//! vm | vs2 | vs1 | funct3 | vd | 0x57), unmasked only; the XT-910 custom
//! extensions live in the custom-0 (0x0B) and custom-1 (0x2B) opcodes.
//! Each op's fixed bits and format are its row of the op table
//! ([`crate::op`]); [`mod@crate::decode`] reads the same rows.

use crate::inst::Inst;
use crate::op::{Op, ROWS};

/// Error returned when an instruction's operands do not fit its encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError {
    /// The offending instruction.
    pub inst: Inst,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot encode {:?}: {}", self.inst.op, self.reason)
    }
}

impl std::error::Error for EncodeError {}

/// Encodes `inst` into its 32-bit binary form: the fixed bits of its row
/// in the op table with the operands packed in by the row's format.
///
/// # Errors
///
/// Returns [`EncodeError`] if an immediate is out of range for the format.
pub fn encode(inst: &Inst) -> Result<u32, EncodeError> {
    let row = &ROWS[inst.op as usize];
    row.format
        .pack(row.bits, inst)
        .map_err(|reason| EncodeError {
            inst: *inst,
            reason,
        })
}

/// Attempts to compress `inst` into a 16-bit RVC encoding.
///
/// Returns `None` when no compressed form exists for the operands. The
/// subset covers the forms the XT-910's fetch-width evaluation cares about:
/// `c.addi`, `c.li`, `c.mv`, `c.add`, `c.j`, `c.jr`, `c.beqz/bnez`,
/// `c.lw/ld/sw/sd`, `c.slli`, and the register-pair ALU ops.
pub fn encode_compressed(inst: &Inst) -> Option<u16> {
    use Op::*;
    let rd = inst.rd as u16;
    let rs1 = inst.rs1 as u16;
    let rs2 = inst.rs2 as u16;
    let imm = inst.imm;
    let cr = |r: u16| -> Option<u16> { (8..16).contains(&r).then(|| r - 8) };
    match inst.op {
        Addi if rd == rs1 && rd != 0 && (-32..32).contains(&imm) => {
            // c.addi
            let i = imm as u16;
            Some(0x0001 | ((i >> 5 & 1) << 12) | (rd << 7) | ((i & 0x1f) << 2))
        }
        Addi if rs1 == 0 && rd != 0 && (-32..32).contains(&imm) => {
            // c.li
            let i = imm as u16;
            Some(0x4001 | ((i >> 5 & 1) << 12) | (rd << 7) | ((i & 0x1f) << 2))
        }
        Addiw if rd == rs1 && rd != 0 && (-32..32).contains(&imm) => {
            // c.addiw
            let i = imm as u16;
            Some(0x2001 | ((i >> 5 & 1) << 12) | (rd << 7) | ((i & 0x1f) << 2))
        }
        Add if rd == rs1 && rd != 0 && rs2 != 0 => Some(0x9002 | (rd << 7) | (rs2 << 2)),
        Add if rs1 == 0 && rd != 0 && rs2 != 0 => Some(0x8002 | (rd << 7) | (rs2 << 2)), // c.mv
        Slli if rd == rs1 && rd != 0 && (1..64).contains(&imm) => {
            let i = imm as u16;
            Some(0x0002 | ((i >> 5 & 1) << 12) | (rd << 7) | ((i & 0x1f) << 2))
        }
        Jalr if rd == 0 && imm == 0 && rs1 != 0 => Some(0x8002 | (rs1 << 7)), // c.jr
        Jalr if rd == 1 && imm == 0 && rs1 != 0 => Some(0x9002 | (rs1 << 7)), // c.jalr
        Jal if rd == 0 && (-2048..2048).contains(&imm) && imm & 1 == 0 => {
            // c.j
            let i = imm as u16;
            Some(
                0xA001
                    | ((i >> 11 & 1) << 12)
                    | ((i >> 4 & 1) << 11)
                    | ((i >> 8 & 3) << 9)
                    | ((i >> 10 & 1) << 8)
                    | ((i >> 6 & 1) << 7)
                    | ((i >> 7 & 1) << 6)
                    | ((i >> 1 & 7) << 3)
                    | ((i >> 5 & 1) << 2),
            )
        }
        Beq | Bne if rs2 == 0 && (-256..256).contains(&imm) && imm & 1 == 0 => {
            let r1 = cr(rs1)?;
            let i = imm as u16;
            let base = if inst.op == Beq { 0xC001 } else { 0xE001 };
            Some(
                base | ((i >> 8 & 1) << 12)
                    | ((i >> 3 & 3) << 10)
                    | (r1 << 7)
                    | ((i >> 6 & 3) << 5)
                    | ((i >> 1 & 3) << 3)
                    | ((i >> 5 & 1) << 2),
            )
        }
        Lw if (0..128).contains(&imm) && imm & 3 == 0 => {
            let (rdp, r1p) = (cr(rd)?, cr(rs1)?);
            let i = imm as u16;
            Some(0x4000 | ((i >> 3 & 7) << 10) | (r1p << 7) | ((i >> 2 & 1) << 6) | ((i >> 6 & 1) << 5) | (rdp << 2))
        }
        Ld if (0..256).contains(&imm) && imm & 7 == 0 => {
            let (rdp, r1p) = (cr(rd)?, cr(rs1)?);
            let i = imm as u16;
            Some(0x6000 | ((i >> 3 & 7) << 10) | (r1p << 7) | ((i >> 6 & 3) << 5) | (rdp << 2))
        }
        Sw if (0..128).contains(&imm) && imm & 3 == 0 => {
            let (r2p, r1p) = (cr(rs2)?, cr(rs1)?);
            let i = imm as u16;
            Some(0xC000 | ((i >> 3 & 7) << 10) | (r1p << 7) | ((i >> 2 & 1) << 6) | ((i >> 6 & 1) << 5) | (r2p << 2))
        }
        Sd if (0..256).contains(&imm) && imm & 7 == 0 => {
            let (r2p, r1p) = (cr(rs2)?, cr(rs1)?);
            let i = imm as u16;
            Some(0xE000 | ((i >> 3 & 7) << 10) | (r1p << 7) | ((i >> 6 & 3) << 5) | (r2p << 2))
        }
        Sub | Xor | Or | And | Subw | Addw if rd == rs1 => {
            let (rdp, r2p) = (cr(rd)?, cr(rs2)?);
            let (hi, f2) = match inst.op {
                Sub => (0x8C01u16, 0),
                Xor => (0x8C01, 1),
                Or => (0x8C01, 2),
                And => (0x8C01, 3),
                Subw => (0x9C01, 0),
                _ => (0x9C01, 1), // Addw
            };
            Some(hi | (rdp << 7) | (f2 << 5) | (r2p << 2))
        }
        Andi if rd == rs1 && (-32..32).contains(&imm) => {
            let rdp = cr(rd)?;
            let i = imm as u16;
            Some(0x8801 | ((i >> 5 & 1) << 12) | (rdp << 7) | ((i & 0x1f) << 2))
        }
        Srli | Srai if rd == rs1 && (1..64).contains(&imm) => {
            let rdp = cr(rd)?;
            let i = imm as u16;
            let f2 = if inst.op == Srli { 0u16 } else { 1 };
            Some(0x8001 | ((i >> 5 & 1) << 12) | (f2 << 10) | (rdp << 7) | ((i & 0x1f) << 2))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addi_known_encoding() {
        let i = Inst::new(Op::Addi).rd(5).rs1(6).imm(42);
        assert_eq!(encode(&i).unwrap(), 0x02A30293);
    }

    #[test]
    fn lui_alignment_checked() {
        let bad = Inst::new(Op::Lui).rd(1).imm(0x123);
        assert!(encode(&bad).is_err());
        let good = Inst::new(Op::Lui).rd(1).imm(0x12000);
        assert!(encode(&good).is_ok());
    }

    #[test]
    fn branch_range_checked() {
        let far = Inst::new(Op::Beq).rs1(1).rs2(2).imm(1 << 14);
        assert!(encode(&far).is_err());
        let odd = Inst::new(Op::Beq).rs1(1).rs2(2).imm(3);
        assert!(encode(&odd).is_err());
    }

    /// Each format's range check refuses with its own reason.
    #[test]
    fn range_errors_name_their_reason() {
        let cases = [
            (Op::Addi, 2048, "I-immediate out of range"),
            (Op::Sd, -2049, "S-immediate out of range"),
            (Op::Beq, 3, "B-immediate out of range or odd"),
            (Op::Lui, 0x123, "U-immediate must be 4 KiB aligned"),
            (Op::Lui, 1 << 31, "U-immediate out of range"),
            (Op::Jal, 1 << 20, "J-immediate out of range or odd"),
            (Op::VaddVI, 16, "vector immediate out of range"),
            (Op::Slli, 64, "shift amount out of range"),
            (Op::Sraiw, 32, "shift amount out of range"),
            (Op::Csrrw, 4096, "CSR address out of range"),
            (Op::Vsetvli, 2048, "vtypei out of range"),
            (Op::XSrw, 4, "index shift out of range"),
            (Op::XAddsl, -1, "shift out of range"),
            (Op::XExt, 4096, "bit-field bounds out of range"),
        ];
        for (op, imm, reason) in cases {
            let i = Inst::new(op).imm(imm);
            assert_eq!(encode(&i), Err(EncodeError { inst: i, reason }), "{op:?}");
        }
    }

    /// An accumulator is encoded once, as rd: a different rs3 is not
    /// written into rd's field.
    #[test]
    fn accumulator_is_encoded_as_rd() {
        for op in [Op::VmaccVV, Op::XMula] {
            let i = Inst::new(op).rd(1).rs1(2).rs2(3);
            assert_eq!(encode(&i.rs3(30)), encode(&i.rs3(1)), "{op:?}");
        }
    }

    #[test]
    fn compressed_addi() {
        // c.addi x8, 4
        let i = Inst::new(Op::Addi).rd(8).rs1(8).imm(4);
        let c = encode_compressed(&i).unwrap();
        assert_eq!(c & 3, 1, "quadrant 1");
    }

    #[test]
    fn compressed_rejects_wide_imm() {
        let i = Inst::new(Op::Addi).rd(8).rs1(8).imm(400);
        assert!(encode_compressed(&i).is_none());
    }
}
