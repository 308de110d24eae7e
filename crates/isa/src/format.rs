//! Instruction formats: where an op's operands sit in its 32-bit word.
//!
//! Every row of the op table ([`crate::op`]) names a [`Format`] and gives
//! the op's fixed bits (opcode, funct3, funct7, ...). The format owns the
//! rest: the five-bit field that holds each register operand, how the
//! immediate is packed and range-checked, and which bits the decoder
//! compares with the fixed bits (its mask). A bit outside the mask and
//! outside every operand field is written as zero by the encoder and not
//! read by the decoder.

use crate::inst::Inst;
use crate::op::Op;

/// Where an op's operands sit in its 32-bit word; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Format {
    /// The bits the decoder compares with the op's fixed bits.
    pub mask: u32,
    /// Bit offset of the five-bit field holding `rd`, `rs1`, `rs2` and
    /// `rs3`; 0 for an operand that is not encoded (it decodes as 0). An
    /// `rs3` in `rd`'s field is the destination read back (an
    /// accumulator): it decodes as `rd` and is not encoded on its own.
    pub regs: [u8; 4],
    /// The immediate.
    pub imm: Imm,
    /// Where `imm`'s bits sit: up to four fields, each the field's bits
    /// in the word and the left rotation that carries them to their
    /// place in the value (an unused field has no bits).
    fields: [(u32, u32); 4],
    /// 64 less `imm`'s width before sign extension (0: unsigned).
    unsigned_bits: u32,
    /// [`Imm::range`] as the lowest and highest value and the low bits a
    /// value must have clear (every step is a power of two), worked out
    /// once so that encoding checks a value without a branch per form.
    range: (i64, i64, i64),
}

/// How a format packs its immediate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Imm {
    /// No immediate: it decodes as 0 and is not encoded.
    None,
    /// Signed 12 bits in 31:20.
    I,
    /// Signed 12 bits in 31:25 and 11:7.
    S,
    /// Signed even 13-bit branch offset.
    B,
    /// Signed multiple of 4096 in 31:12.
    U,
    /// Signed even 21-bit jump offset.
    J,
    /// The OP-V `simm5`: signed 5 bits in 19:15.
    V,
    /// Unsigned `0..limit` (a power of two) from bit `at`.
    Uimm {
        /// Lowest bit of the field.
        at: u8,
        /// One past the largest value.
        limit: u32,
        /// The encoder's error for a value out of range.
        reason: &'static str,
    },
}

pub(crate) fn sext(v: u32, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((v as i64) << shift) >> shift
}

impl Imm {
    /// The encodable values as `(lowest, highest, step)`; `None` for
    /// [`Imm::None`].
    pub const fn range(self) -> Option<(i64, i64, i64)> {
        Some(match self {
            Imm::None => return None,
            Imm::I | Imm::S => (-2048, 2047, 1),
            Imm::B => (-4096, 4094, 2),
            Imm::U => (-(1 << 31), (1 << 31) - 4096, 4096),
            Imm::J => (-(1 << 20), (1 << 20) - 2, 2),
            Imm::V => (-16, 15, 1),
            Imm::Uimm { limit, .. } => (0, limit as i64 - 1, 1),
        })
    }

    /// This immediate's fields as `(word bit, value bit, width)` (unused
    /// ones of width 0) and its width before sign extension (64:
    /// unsigned).
    const fn layout(self) -> ([(u32, u32, u32); 4], u32) {
        const NO: (u32, u32, u32) = (0, 0, 0);
        match self {
            Imm::None => ([NO; 4], 64),
            Imm::I => ([(20, 0, 12), NO, NO, NO], 12),
            Imm::S => ([(25, 5, 7), (7, 0, 5), NO, NO], 12),
            Imm::B => ([(31, 12, 1), (7, 11, 1), (25, 5, 6), (8, 1, 4)], 13),
            Imm::U => ([(12, 12, 20), NO, NO, NO], 32),
            Imm::J => ([(31, 20, 1), (12, 12, 8), (20, 11, 1), (21, 1, 10)], 21),
            Imm::V => ([(15, 0, 5), NO, NO, NO], 5),
            Imm::Uimm { at, limit, .. } => {
                ([(at as u32, 0, limit.trailing_zeros()), NO, NO, NO], 64)
            }
        }
    }

    /// Why `v` does not fit in [`Format::range`].
    fn reason(self, v: i64) -> &'static str {
        match self {
            Imm::I => "I-immediate out of range",
            Imm::S => "S-immediate out of range",
            Imm::B => "B-immediate out of range or odd",
            Imm::U if v & 0xfff != 0 => "U-immediate must be 4 KiB aligned",
            Imm::U => "U-immediate out of range",
            Imm::J => "J-immediate out of range or odd",
            Imm::V => "vector immediate out of range",
            Imm::Uimm { reason, .. } => reason,
            Imm::None => unreachable!(),
        }
    }
}

impl Format {
    /// `bits` with `inst`'s operands packed in.
    pub(crate) fn pack(&self, bits: u32, inst: &Inst) -> Result<u32, &'static str> {
        let (lo, hi, align) = self.range;
        if inst.imm < lo || inst.imm > hi || inst.imm & align != 0 {
            return Err(self.imm.reason(inst.imm));
        }
        let [rd, rs1, rs2, rs3] = self.regs;
        // an accumulator is encoded once, as rd
        let rs3 = if rs3 == rd { 0 } else { rs3 };
        let mut w = bits;
        for (at, r) in [
            (rd, inst.rd),
            (rs1, inst.rs1),
            (rs2, inst.rs2),
            (rs3, inst.rs3),
        ] {
            if at != 0 {
                w |= (r as u32) << at;
            }
        }
        for (mask, rot) in self.fields {
            w |= (inst.imm as u64).rotate_right(rot) as u32 & mask;
        }
        Ok(w)
    }

    /// The operands of `w`, an `op` word. Branch-free: formats alternate
    /// from word to word, and a branch per field or immediate form would
    /// mispredict.
    pub(crate) fn unpack(&self, op: Op, w: u32) -> Inst {
        // an operand that is not encoded reads field 0, masked to 0
        let reg = |at: u8| (w >> at) as u8 & 0x1f & 0u8.wrapping_sub((at != 0) as u8);
        let [rd, rs1, rs2, rs3] = self.regs;
        let mut imm = 0u64;
        for (mask, rot) in self.fields {
            imm |= ((w & mask) as u64).rotate_left(rot);
        }
        let imm = ((imm << self.unsigned_bits) as i64) >> self.unsigned_bits;
        Inst::new(op)
            .rd(reg(rd))
            .rs1(reg(rs1))
            .rs2(reg(rs2))
            .rs3(reg(rs3))
            .imm(imm)
    }
}

// The five-bit register fields.
const RD: u8 = 7;
const RS1: u8 = 15;
const RS2: u8 = 20;
const RS3: u8 = 27;

// Masks: the opcode alone; with funct3; with funct3 and funct7 (or
// funct5 above an unread or immediate 2-bit field); with rs2 as well.
const OPC: u32 = 0x0000_007f;
const F3: u32 = 0x0000_707f;
const F7: u32 = 0xfe00_707f;
const F5: u32 = 0xf800_707f;
const SEL: u32 = 0xfff0_707f;

const fn f(mask: u32, regs: [u8; 4], imm: Imm) -> Format {
    let (layout, width) = imm.layout();
    let mut fields = [(0, 0); 4];
    let mut k = 0;
    while k < 4 {
        let (at, to, bits) = layout[k];
        // rotating left by (to - at) mod 64 moves the field up or down;
        // what wraps around either way lands outside the field
        fields[k] = ((((1u64 << bits) - 1) as u32) << at, (to + 64 - at) % 64);
        k += 1;
    }
    let range = match imm.range() {
        Some((lo, hi, step)) => (lo, hi, step - 1),
        None => (i64::MIN, i64::MAX, 0),
    };
    Format {
        mask,
        regs,
        imm,
        fields,
        unsigned_bits: 64 - width,
        range,
    }
}

const SHIFT: Imm = Imm::Uimm {
    at: 20,
    limit: 64,
    reason: "shift amount out of range",
};
const SHIFT_W: Imm = Imm::Uimm {
    at: 20,
    limit: 32,
    reason: "shift amount out of range",
};
const INDEX: Imm = Imm::Uimm {
    at: 25,
    limit: 4,
    reason: "index shift out of range",
};

pub(crate) const U: Format = f(OPC, [RD, 0, 0, 0], Imm::U);
pub(crate) const J: Format = f(OPC, [RD, 0, 0, 0], Imm::J);
/// `jalr`: funct3 is not read.
pub(crate) const JR: Format = f(OPC, [RD, RS1, 0, 0], Imm::I);
pub(crate) const I: Format = f(F3, [RD, RS1, 0, 0], Imm::I);
pub(crate) const S: Format = f(F3, [0, RS1, RS2, 0], Imm::S);
pub(crate) const B: Format = f(F3, [0, RS1, RS2, 0], Imm::B);
/// 6-bit shift amount; imm[11:6] is not read.
pub(crate) const SH6: Format = f(F3, [RD, RS1, 0, 0], SHIFT);
/// `srai`: bit 30 set; the rest of imm[11:6] is not read.
pub(crate) const SRAI: Format = f(F3 | 1 << 30, [RD, RS1, 0, 0], SHIFT);
/// 5-bit shift amount; funct7 is not read.
pub(crate) const SH5: Format = f(F3, [RD, RS1, 0, 0], SHIFT_W);
/// `sraiw`: funct7 exact.
pub(crate) const SRAIW: Format = f(F7, [RD, RS1, 0, 0], SHIFT_W);
pub(crate) const R: Format = f(F7, [RD, RS1, RS2, 0], Imm::None);
/// One source; the rs2 field is a fixed selector.
pub(crate) const R1: Format = f(SEL, [RD, RS1, 0, 0], Imm::None);
/// aq/rl are not read.
pub(crate) const AMO: Format = f(F5, [RD, RS1, RS2, 0], Imm::None);
/// `lr`: aq/rl and the rs2 field are not read.
pub(crate) const LR: Format = f(F5, [RD, RS1, 0, 0], Imm::None);
/// Fused multiply-add: fmt in 26:25; the rounding mode is not read.
pub(crate) const R4: Format = f(OPC | 3 << 25, [RD, RS1, RS2, RS3], Imm::None);
/// The destination accumulates: rs3 is rd.
pub(crate) const RMAC: Format = f(F7, [RD, RS1, RS2, RD], Imm::None);
/// A whole fixed word.
pub(crate) const SYS: Format = f(!0, [0, 0, 0, 0], Imm::None);
/// pred/succ/fm, rs1 and rd are not read.
pub(crate) const FENCE: Format = f(F3, [0, 0, 0, 0], Imm::None);
/// `sfence.vma`: the rd field is not read.
pub(crate) const SFENCE: Format = f(F7, [0, RS1, RS2, 0], Imm::None);
pub(crate) const CSR: Format = f(
    F3,
    [RD, RS1, 0, 0],
    Imm::Uimm {
        at: 20,
        limit: 4096,
        reason: "CSR address out of range",
    },
);
/// `vsetvli`: bit 31 clear, vtypei in 30:20.
pub(crate) const VSETI: Format = f(
    F3 | 1 << 31,
    [RD, RS1, 0, 0],
    Imm::Uimm {
        at: 20,
        limit: 2048,
        reason: "vtypei out of range",
    },
);
/// `vsetvl`: bit 31 set; 30:25 are not read.
pub(crate) const VSET: Format = f(F3 | 1 << 31, [RD, RS1, RS2, 0], Imm::None);
/// Unit-stride vector load: the rs2 field is not read.
pub(crate) const VL: Format = f(F7, [RD, RS1, 0, 0], Imm::None);
/// Indexed vector load: the index vector (rs3) in the rs2 field.
pub(crate) const VLX: Format = f(F7, [RD, RS1, 0, RS2], Imm::None);
/// Unit-stride vector store: the data vector (rs3) in the rd field; the
/// rs2 field is not read.
pub(crate) const VS: Format = f(F7, [0, RS1, 0, RD], Imm::None);
/// Strided or indexed vector store: data vector (rs3) in the rd field.
pub(crate) const VSS: Format = f(F7, [0, RS1, RS2, RD], Imm::None);
/// OP-V (vm = 1): vs2 (rs1) in the rs2 field, vs1 or the scalar (rs2)
/// in the rs1 field.
pub(crate) const OPV: Format = f(F7, [RD, RS2, RS1, 0], Imm::None);
/// OP-V multiply-accumulate: rs3 is vd.
pub(crate) const OPVM: Format = f(F7, [RD, RS2, RS1, RD], Imm::None);
/// OP-V with `simm5` in the rs1 field.
pub(crate) const OPVI: Format = f(F7, [RD, RS2, 0, 0], Imm::V);
/// Indexed load: the index shift in funct7[1:0].
pub(crate) const XIDX: Format = f(F5, [RD, RS1, RS2, 0], INDEX);
/// Indexed store: the data register (rs3) in the rd field.
pub(crate) const XIDXS: Format = f(F5, [0, RS1, RS2, RD], INDEX);
/// `x.addsl`: the shift in funct7[1:0].
pub(crate) const XADDSL: Format = f(
    F5,
    [RD, RS1, RS2, 0],
    Imm::Uimm {
        at: 25,
        limit: 4,
        reason: "shift out of range",
    },
);
/// Bit-field bounds `msb << 6 | lsb` in 31:20.
pub(crate) const EXT: Format = f(
    F3,
    [RD, RS1, 0, 0],
    Imm::Uimm {
        at: 20,
        limit: 4096,
        reason: "bit-field bounds out of range",
    },
);
