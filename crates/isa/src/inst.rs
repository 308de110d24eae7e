//! The decoded-instruction type shared by the assembler, functional
//! emulator and the timing models.

use crate::op::{Op, OpTraits, RegFile};

/// A decoded instruction: an [`Op`] plus its operand values.
///
/// Register fields are raw indices (`0..32`); which file they refer to is
/// given by [`Op::traits_of`]. `imm` carries the (sign-extended) immediate.
/// For the XT-910 bit-field ops (`x.ext`/`x.extu`) the immediate packs
/// `msb << 6 | lsb`; for the indexed memory ops it carries the index shift
/// amount (0..=3); for `vsetvli` it carries the raw `vtypei` bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Destination register index.
    pub rd: u8,
    /// Source register 1 index.
    pub rs1: u8,
    /// Source register 2 index.
    pub rs2: u8,
    /// Source register 3 index (FMA; vector store data register `vs3`).
    pub rs3: u8,
    /// Immediate (sign-extended) or auxiliary field; see type-level docs.
    pub imm: i64,
    /// Encoded length in bytes (2 for a compressed form, else 4).
    pub len: u8,
}

impl Inst {
    /// Creates an instruction with every operand zeroed.
    pub fn new(op: Op) -> Self {
        Inst {
            op,
            rd: 0,
            rs1: 0,
            rs2: 0,
            rs3: 0,
            imm: 0,
            len: 4,
        }
    }

    /// Builder-style destination register.
    pub fn rd(mut self, rd: u8) -> Self {
        self.rd = rd;
        self
    }

    /// Builder-style source register 1.
    pub fn rs1(mut self, rs1: u8) -> Self {
        self.rs1 = rs1;
        self
    }

    /// Builder-style source register 2.
    pub fn rs2(mut self, rs2: u8) -> Self {
        self.rs2 = rs2;
        self
    }

    /// Builder-style source register 3.
    pub fn rs3(mut self, rs3: u8) -> Self {
        self.rs3 = rs3;
        self
    }

    /// Builder-style immediate.
    pub fn imm(mut self, imm: i64) -> Self {
        self.imm = imm;
        self
    }

    /// Builder-style encoded length.
    pub fn with_len(mut self, len: u8) -> Self {
        debug_assert!(len == 2 || len == 4);
        self.len = len;
        self
    }

    /// Whether the instruction writes an integer destination other than `x0`.
    pub fn writes_int_dest(&self) -> bool {
        self.op.traits_of().rd == RegFile::Int && self.rd != 0
    }

    /// Destination register and its file, if any (writes to `x0` excluded).
    pub fn dest(&self) -> Option<(RegFile, u8)> {
        self.dest_of(self.op.traits_of())
    }

    /// [`Self::dest`] for a caller that already holds `self.op.traits_of()`.
    #[inline]
    pub fn dest_of(&self, t: OpTraits) -> Option<(RegFile, u8)> {
        match t.rd {
            RegFile::None => None,
            RegFile::Int if self.rd == 0 => None,
            rf => Some((rf, self.rd)),
        }
    }

    /// Source registers with their files, in rs1/rs2/rs3 order.
    ///
    /// Reads of integer `x0` are omitted (hard-wired zero never creates a
    /// dependence).
    pub fn sources(&self) -> impl Iterator<Item = (RegFile, u8)> {
        self.sources_of(self.op.traits_of())
            .into_iter()
            .filter(|&(rf, _)| rf != RegFile::None)
    }

    /// The three operand positions of [`Self::sources`], for a caller
    /// that already holds `self.op.traits_of()` and loops once per
    /// instruction: a position that names no register, or reads integer
    /// `x0`, has file [`RegFile::None`].
    #[inline]
    pub fn sources_of(&self, t: OpTraits) -> [(RegFile, u8); 3] {
        let mk = |rf: RegFile, idx: u8| match rf {
            RegFile::Int if idx == 0 => (RegFile::None, 0),
            rf => (rf, idx),
        };
        [
            mk(t.rs1, self.rs1),
            mk(t.rs2, self.rs2),
            mk(t.rs3, self.rs3),
        ]
    }

    /// For `x.ext`/`x.extu`: the `(msb, lsb)` bit-field bounds.
    pub fn ext_bounds(&self) -> (u32, u32) {
        let raw = self.imm as u64;
        (((raw >> 6) & 0x3f) as u32, (raw & 0x3f) as u32)
    }

    /// Packs `(msb, lsb)` bounds into the immediate for `x.ext`/`x.extu`.
    pub fn pack_ext_bounds(msb: u32, lsb: u32) -> i64 {
        debug_assert!(msb < 64 && lsb < 64);
        ((msb << 6) | lsb) as i64
    }
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        crate::disasm::fmt_inst(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_dest() {
        let i = Inst::new(Op::Add).rd(3).rs1(1).rs2(2);
        assert_eq!(i.dest(), Some((RegFile::Int, 3)));
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![(RegFile::Int, 1), (RegFile::Int, 2)]);
    }

    #[test]
    fn zero_register_elided() {
        let i = Inst::new(Op::Add).rd(0).rs1(0).rs2(5);
        assert_eq!(i.dest(), None);
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![(RegFile::Int, 5)]);
        // positional form: x0 and the unused rs3 read as "no register"
        assert_eq!(
            i.sources_of(i.op.traits_of()),
            [(RegFile::None, 0), (RegFile::Int, 5), (RegFile::None, 0)]
        );
    }

    #[test]
    fn ext_bounds_roundtrip() {
        let imm = Inst::pack_ext_bounds(31, 8);
        let i = Inst::new(Op::XExtu).rd(1).rs1(2).imm(imm);
        assert_eq!(i.ext_bounds(), (31, 8));
    }

    #[test]
    fn fp_sources_include_x0_index() {
        // f0 is a real register: reads of FP index 0 must not be elided.
        let i = Inst::new(Op::FaddD).rd(1).rs1(0).rs2(0);
        assert_eq!(i.sources().count(), 2);
    }
}
