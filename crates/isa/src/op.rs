//! The operation (`Op`) enumeration and its static properties.
//!
//! Every instruction the simulator understands — RV64IMAFDC, Zicsr,
//! privileged, RVV 0.7.1 subset, and the XT-910 custom extensions — is one
//! variant of [`Op`]. Operand *values* live in [`crate::inst::Inst`]; this
//! module captures the operand *shape* (which register files are read and
//! written) and the execution class used by the timing models.

/// Which register file an operand lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegFile {
    /// Integer GPRs `x0..x31`.
    Int,
    /// Floating-point registers `f0..f31`.
    Fp,
    /// Vector registers `v0..v31`.
    Vec,
    /// No register.
    None,
}

/// Functional-unit class, used by the timing models to route a µop to an
/// execution pipe and to look up its latency (paper §IV, §VII).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExecClass {
    /// Single-cycle integer ALU op (2 pipes on XT-910).
    Alu,
    /// Integer multiply (shares the ALU pipe pair on XT-910, 3-4 cycles).
    Mul,
    /// Integer divide / remainder (shares the multi-cycle ALU pipe).
    Div,
    /// Conditional branch, resolved in the branch-jump unit.
    Branch,
    /// Unconditional jump / call (`jal`).
    Jump,
    /// Indirect jump / return (`jalr`).
    JumpInd,
    /// Memory load (load pipe of the dual-issue LSU).
    Load,
    /// Memory store (split into st.addr + st.data µops, paper §V-B).
    Store,
    /// Atomic memory operation / LR / SC.
    Amo,
    /// Memory/pipeline fence.
    Fence,
    /// Scalar FP add/sub/compare/min/max/sign-inject.
    FpAdd,
    /// Scalar FP multiply and fused multiply-add.
    FpMul,
    /// Scalar FP divide / square root (iterative).
    FpDiv,
    /// Scalar FP conversion / move between register files.
    FpCvt,
    /// CSR access (serializing).
    Csr,
    /// Vector configuration (`vsetvl`/`vsetvli`) — speculated by XT-910.
    VSet,
    /// Vector integer ALU (3-4 cycles per §VII).
    VecAlu,
    /// Vector integer / FP multiply or MAC (5 cycles for FP mul).
    VecMul,
    /// Vector divide (6-25 cycles).
    VecDiv,
    /// Vector FP add-class op.
    VecFAdd,
    /// Vector load.
    VecLoad,
    /// Vector store.
    VecStore,
    /// Vector reduction / permutation (crosses slices).
    VecPerm,
    /// System instruction (ecall/ebreak/mret/sret/wfi) — serializing.
    System,
    /// Cache/TLB maintenance hint (XT-910 extension).
    CacheOp,
}

impl ExecClass {
    /// Whether this class executes in the vector unit.
    #[inline]
    pub fn is_vector(self) -> bool {
        matches!(
            self,
            ExecClass::VecAlu
                | ExecClass::VecMul
                | ExecClass::VecDiv
                | ExecClass::VecFAdd
                | ExecClass::VecLoad
                | ExecClass::VecStore
                | ExecClass::VecPerm
        )
    }

    /// Whether this class accesses data memory.
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            ExecClass::Load
                | ExecClass::Store
                | ExecClass::Amo
                | ExecClass::VecLoad
                | ExecClass::VecStore
        )
    }

    /// Whether this class changes control flow.
    pub fn is_ctrl(self) -> bool {
        matches!(
            self,
            ExecClass::Branch | ExecClass::Jump | ExecClass::JumpInd
        )
    }
}

/// Declares [`Op`] together with [`Op::ALL`], so the list of variants
/// exists once.
macro_rules! ops {
    ($(#[$meta:meta])* pub enum Op { $($(#[$vmeta:meta])* $name:ident,)* }) => {
        $(#[$meta])*
        pub enum Op { $($(#[$vmeta])* $name,)* }

        impl Op {
            /// Every operation, in discriminant order (`ALL[op as usize] == op`).
            pub const ALL: &'static [Op] = &[$(Op::$name),*];
        }
    };
}

ops! {
/// Every operation of the simulated ISA.
///
/// Naming follows the assembly mnemonic, camel-cased; `W`-suffixed variants
/// are the RV64 32-bit-result forms. Custom XT-910 extension operations are
/// prefixed with `X`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variants mirror standard mnemonics
pub enum Op {
    // ---- RV32I/RV64I base ----
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
    Sb,
    Sh,
    Sw,
    Sd,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Fence,
    FenceI,
    Ecall,
    Ebreak,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    // ---- M extension ----
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
    // ---- A extension ----
    LrW,
    LrD,
    ScW,
    ScD,
    AmoSwapW,
    AmoAddW,
    AmoXorW,
    AmoAndW,
    AmoOrW,
    AmoMinW,
    AmoMaxW,
    AmoMinuW,
    AmoMaxuW,
    AmoSwapD,
    AmoAddD,
    AmoXorD,
    AmoAndD,
    AmoOrD,
    AmoMinD,
    AmoMaxD,
    AmoMinuD,
    AmoMaxuD,
    // ---- F extension (single-precision) ----
    Flw,
    Fsw,
    FmaddS,
    FmsubS,
    FnmsubS,
    FnmaddS,
    FaddS,
    FsubS,
    FmulS,
    FdivS,
    FsqrtS,
    FsgnjS,
    FsgnjnS,
    FsgnjxS,
    FminS,
    FmaxS,
    FcvtWS,
    FcvtWuS,
    FcvtLS,
    FcvtLuS,
    FmvXW,
    FeqS,
    FltS,
    FleS,
    FclassS,
    FcvtSW,
    FcvtSWu,
    FcvtSL,
    FcvtSLu,
    FmvWX,
    // ---- D extension (double-precision) ----
    Fld,
    Fsd,
    FmaddD,
    FmsubD,
    FnmsubD,
    FnmaddD,
    FaddD,
    FsubD,
    FmulD,
    FdivD,
    FsqrtD,
    FsgnjD,
    FsgnjnD,
    FsgnjxD,
    FminD,
    FmaxD,
    FcvtSD,
    FcvtDS,
    FeqD,
    FltD,
    FleD,
    FclassD,
    FcvtWD,
    FcvtWuD,
    FcvtLD,
    FcvtLuD,
    FcvtDW,
    FcvtDWu,
    FcvtDL,
    FcvtDLu,
    FmvXD,
    FmvDX,
    // ---- Zicsr ----
    Csrrw,
    Csrrs,
    Csrrc,
    Csrrwi,
    Csrrsi,
    Csrrci,
    // ---- privileged ----
    Mret,
    Sret,
    Wfi,
    SfenceVma,
    // ---- RVV 0.7.1 subset ----
    /// `vsetvli rd, rs1, vtypei`
    Vsetvli,
    /// `vsetvl rd, rs1, rs2`
    Vsetvl,
    /// Unit-stride vector load of SEW-sized elements (`vle.v` in 0.7.1).
    Vle,
    /// Unit-stride vector store.
    Vse,
    /// Strided vector load (`vlse.v`); stride in rs2 (bytes).
    Vlse,
    /// Strided vector store.
    Vsse,
    /// Indexed (gather) vector load (`vlxe.v`); indices in vs2.
    Vlxe,
    /// Indexed (scatter) vector store.
    Vsxe,
    VaddVV,
    VaddVX,
    VaddVI,
    VsubVV,
    VsubVX,
    VrsubVX,
    VandVV,
    VandVX,
    VorVV,
    VorVX,
    VxorVV,
    VxorVX,
    VsllVV,
    VsllVX,
    VsrlVV,
    VsrlVX,
    VsraVV,
    VsraVX,
    VminVV,
    VminuVV,
    VmaxVV,
    VmaxuVV,
    VmulVV,
    VmulVX,
    VmulhVV,
    VmaccVV,
    VmaccVX,
    VnmsacVV,
    VdivVV,
    VdivuVV,
    VremVV,
    /// Widening integer multiply (SEW → 2·SEW).
    VwmulVV,
    VwmuluVV,
    /// Widening multiply-accumulate (the 16-bit-MAC workhorse, §X).
    VwmaccVV,
    VwmaccuVV,
    /// Integer reduction sum (`vredsum.vs`).
    VredsumVS,
    VredmaxVS,
    VmvVV,
    VmvVX,
    VmvVI,
    /// Move scalar from vector element 0 (`vmv.x.s` / `vext.x.v` in 0.7.1).
    VmvXS,
    VmvSX,
    /// Slide down by scalar amount (cross-slice permutation).
    Vslidedown,
    Vslideup,
    // vector FP
    VfaddVV,
    VfaddVF,
    VfsubVV,
    VfmulVV,
    VfmulVF,
    VfdivVV,
    VfmaccVV,
    VfmaccVF,
    VfnmsacVV,
    VfminVV,
    VfmaxVV,
    VfredsumVS,
    VfsqrtV,
    // ---- XT-910 custom extensions (§VIII) ----
    /// Indexed load byte: `xlrb rd, rs1, rs2, shift` — `rd = sext(mem8[rs1 + (rs2 << shift)])`.
    XLrb,
    XLrbu,
    XLrh,
    XLrhu,
    XLrw,
    XLrwu,
    XLrd,
    /// Indexed store: `xsrb rs2v, rs1, rs2, shift`.
    XSrb,
    XSrh,
    XSrw,
    XSrd,
    /// Indexed load with zero-extended 32-bit index (`rd = mem[rs1 + (zext32(rs2) << shift)]`).
    XLurw,
    XLurd,
    /// `xaddsl rd, rs1, rs2, shift` — `rd = rs1 + (rs2 << shift)` (address fusion).
    XAddsl,
    /// Zero-extending word add for address generation: `rd = rs1 + zext32(rs2)` (§VIII-A).
    XAdduw,
    /// Zero-extend word: `rd = zext32(rs1)`.
    XZextw,
    /// Bit-field extract signed: `xext rd, rs1, msb, lsb`.
    XExt,
    /// Bit-field extract unsigned.
    XExtu,
    /// Find first zero bit from MSB.
    XFf0,
    /// Find first one bit from MSB.
    XFf1,
    /// Byte-reverse (64-bit).
    XRev,
    /// Test bit `imm`: `rd = (rs1 >> imm) & 1`.
    XTst,
    /// Rotate right immediate.
    XSrri,
    /// Conditional move if zero: `rd = (rs2 == 0) ? rs1 : rd`.
    XMveqz,
    /// Conditional move if non-zero.
    XMvnez,
    /// Multiply-add: `rd += rs1 * rs2`.
    XMula,
    /// Multiply-subtract: `rd -= rs1 * rs2`.
    XMuls,
    /// 32-bit multiply-add (result sign-extended).
    XMulaw,
    XMulsw,
    /// 16-bit multiply-add: `rd += sext16(rs1) * sext16(rs2)`.
    XMulah,
    XMulsh,
    /// D-cache clean+invalidate all (privileged maintenance hint).
    XDcacheCall,
    /// D-cache invalidate by VA (hint).
    XDcacheCva,
    /// I-cache invalidate all (hint).
    XIcacheIall,
    /// TLB maintenance broadcast over the coherence interconnect (§V-E).
    XTlbBroadcast,
    /// Full pipeline/memory synchronization barrier.
    XSync,
}
}

/// How many source/destination register operands an [`Op`] has and where
/// they live. Produced by [`Op::traits_of`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpTraits {
    /// Execution class for pipe routing and latency.
    pub class: ExecClass,
    /// Register file of the destination (`RegFile::None` if no dest).
    pub rd: RegFile,
    /// Register file of source 1.
    pub rs1: RegFile,
    /// Register file of source 2.
    pub rs2: RegFile,
    /// Register file of source 3 (FMA and vector MAC read a third source;
    /// for vector MAC it is the destination accumulator).
    pub rs3: RegFile,
}

use ExecClass as C;
use RegFile::{Fp, Int, None as NoR, Vec as Vc};

const fn t(class: ExecClass, rd: RegFile, rs1: RegFile, rs2: RegFile, rs3: RegFile) -> OpTraits {
    OpTraits {
        class,
        rd,
        rs1,
        rs2,
        rs3,
    }
}

/// [`Op::describe`] evaluated once per operation at compile time: the
/// timing models ask for an op's traits on every instruction, and an
/// indexed load inlines where a 261-arm match does not.
static TRAITS: [OpTraits; Op::ALL.len()] = {
    let mut table = [t(C::Alu, NoR, NoR, NoR, NoR); Op::ALL.len()];
    let mut i = 0;
    while i < table.len() {
        table[Op::ALL[i] as usize] = Op::ALL[i].describe();
        i += 1;
    }
    table
};

impl Op {
    /// Static operand/class information for this operation.
    #[inline]
    pub fn traits_of(self) -> OpTraits {
        TRAITS[self as usize]
    }

    /// The definition behind [`Self::traits_of`].
    const fn describe(self) -> OpTraits {
        use Op::*;
        match self {
            Lui => t(C::Alu, Int, NoR, NoR, NoR),
            Auipc => t(C::Alu, Int, NoR, NoR, NoR),
            Jal => t(C::Jump, Int, NoR, NoR, NoR),
            Jalr => t(C::JumpInd, Int, Int, NoR, NoR),
            Beq | Bne | Blt | Bge | Bltu | Bgeu => t(C::Branch, NoR, Int, Int, NoR),
            Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu => t(C::Load, Int, Int, NoR, NoR),
            Sb | Sh | Sw | Sd => t(C::Store, NoR, Int, Int, NoR),
            Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai | Addiw | Slliw
            | Srliw | Sraiw => t(C::Alu, Int, Int, NoR, NoR),
            Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And | Addw | Subw | Sllw
            | Srlw | Sraw => t(C::Alu, Int, Int, Int, NoR),
            Fence | FenceI => t(C::Fence, NoR, NoR, NoR, NoR),
            Ecall | Ebreak | Mret | Sret | Wfi => t(C::System, NoR, NoR, NoR, NoR),
            SfenceVma => t(C::Fence, NoR, Int, Int, NoR),
            Mul | Mulh | Mulhsu | Mulhu | Mulw => t(C::Mul, Int, Int, Int, NoR),
            Div | Divu | Rem | Remu | Divw | Divuw | Remw | Remuw => t(C::Div, Int, Int, Int, NoR),
            LrW | LrD => t(C::Amo, Int, Int, NoR, NoR),
            ScW | ScD => t(C::Amo, Int, Int, Int, NoR),
            AmoSwapW | AmoAddW | AmoXorW | AmoAndW | AmoOrW | AmoMinW | AmoMaxW | AmoMinuW
            | AmoMaxuW | AmoSwapD | AmoAddD | AmoXorD | AmoAndD | AmoOrD | AmoMinD | AmoMaxD
            | AmoMinuD | AmoMaxuD => t(C::Amo, Int, Int, Int, NoR),
            Flw | Fld => t(C::Load, Fp, Int, NoR, NoR),
            Fsw | Fsd => t(C::Store, NoR, Int, Fp, NoR),
            FmaddS | FmsubS | FnmsubS | FnmaddS | FmaddD | FmsubD | FnmsubD | FnmaddD => {
                t(C::FpMul, Fp, Fp, Fp, Fp)
            }
            FaddS | FsubS | FaddD | FsubD | FsgnjS | FsgnjnS | FsgnjxS | FsgnjD | FsgnjnD
            | FsgnjxD | FminS | FmaxS | FminD | FmaxD => t(C::FpAdd, Fp, Fp, Fp, NoR),
            FmulS | FmulD => t(C::FpMul, Fp, Fp, Fp, NoR),
            FdivS | FdivD => t(C::FpDiv, Fp, Fp, Fp, NoR),
            FsqrtS | FsqrtD => t(C::FpDiv, Fp, Fp, NoR, NoR),
            FeqS | FltS | FleS | FeqD | FltD | FleD => t(C::FpAdd, Int, Fp, Fp, NoR),
            FclassS | FclassD => t(C::FpCvt, Int, Fp, NoR, NoR),
            FcvtWS | FcvtWuS | FcvtLS | FcvtLuS | FcvtWD | FcvtWuD | FcvtLD | FcvtLuD | FmvXW
            | FmvXD => t(C::FpCvt, Int, Fp, NoR, NoR),
            FcvtSW | FcvtSWu | FcvtSL | FcvtSLu | FcvtDW | FcvtDWu | FcvtDL | FcvtDLu | FmvWX
            | FmvDX => t(C::FpCvt, Fp, Int, NoR, NoR),
            FcvtSD | FcvtDS => t(C::FpCvt, Fp, Fp, NoR, NoR),
            Csrrw | Csrrs | Csrrc => t(C::Csr, Int, Int, NoR, NoR),
            Csrrwi | Csrrsi | Csrrci => t(C::Csr, Int, NoR, NoR, NoR),
            Vsetvli => t(C::VSet, Int, Int, NoR, NoR),
            Vsetvl => t(C::VSet, Int, Int, Int, NoR),
            Vle | Vlse | Vlxe => t(
                C::VecLoad,
                Vc,
                Int,
                if matches!(self, Vlse) { Int } else { NoR },
                if matches!(self, Vlxe) { Vc } else { NoR },
            ),
            Vse | Vsse | Vsxe => t(
                C::VecStore,
                NoR,
                Int,
                match self {
                    Vsse => Int, // stride register
                    Vsxe => Vc,  // index vector register
                    _ => NoR,
                },
                Vc, // data register (vs3)
            ),
            VaddVV | VsubVV | VandVV | VorVV | VxorVV | VsllVV | VsrlVV | VsraVV | VminVV
            | VminuVV | VmaxVV | VmaxuVV => t(C::VecAlu, Vc, Vc, Vc, NoR),
            VaddVX | VsubVX | VrsubVX | VandVX | VorVX | VxorVX | VsllVX | VsrlVX | VsraVX => {
                t(C::VecAlu, Vc, Vc, Int, NoR)
            }
            VaddVI => t(C::VecAlu, Vc, Vc, NoR, NoR),
            VmulVV | VmulhVV | VwmulVV | VwmuluVV => t(C::VecMul, Vc, Vc, Vc, NoR),
            VmulVX => t(C::VecMul, Vc, Vc, Int, NoR),
            VmaccVV | VnmsacVV | VwmaccVV | VwmaccuVV => t(C::VecMul, Vc, Vc, Vc, Vc),
            VmaccVX => t(C::VecMul, Vc, Vc, Int, Vc),
            VdivVV | VdivuVV | VremVV => t(C::VecDiv, Vc, Vc, Vc, NoR),
            VredsumVS | VredmaxVS => t(C::VecPerm, Vc, Vc, Vc, NoR),
            VmvVV => t(C::VecAlu, Vc, Vc, NoR, NoR),
            VmvVX => t(C::VecAlu, Vc, Int, NoR, NoR),
            VmvVI => t(C::VecAlu, Vc, NoR, NoR, NoR),
            VmvXS => t(C::VecPerm, Int, Vc, NoR, NoR),
            VmvSX => t(C::VecPerm, Vc, Int, NoR, NoR),
            Vslidedown | Vslideup => t(C::VecPerm, Vc, Vc, Int, NoR),
            VfaddVV | VfsubVV | VfminVV | VfmaxVV => t(C::VecFAdd, Vc, Vc, Vc, NoR),
            VfaddVF => t(C::VecFAdd, Vc, Vc, Fp, NoR),
            VfmulVV => t(C::VecMul, Vc, Vc, Vc, NoR),
            VfmulVF => t(C::VecMul, Vc, Vc, Fp, NoR),
            VfdivVV | VfsqrtV => t(C::VecDiv, Vc, Vc, if matches!(self, VfdivVV) { Vc } else { NoR }, NoR),
            VfmaccVV | VfnmsacVV => t(C::VecMul, Vc, Vc, Vc, Vc),
            VfmaccVF => t(C::VecMul, Vc, Vc, Fp, Vc),
            VfredsumVS => t(C::VecPerm, Vc, Vc, Vc, NoR),
            XLrb | XLrbu | XLrh | XLrhu | XLrw | XLrwu | XLrd | XLurw | XLurd => {
                t(C::Load, Int, Int, Int, NoR)
            }
            XSrb | XSrh | XSrw | XSrd => t(C::Store, NoR, Int, Int, Int),
            XAddsl | XAdduw => t(C::Alu, Int, Int, Int, NoR),
            XZextw | XExt | XExtu | XFf0 | XFf1 | XRev | XTst | XSrri => {
                t(C::Alu, Int, Int, NoR, NoR)
            }
            XMveqz | XMvnez => t(C::Alu, Int, Int, Int, Int),
            XMula | XMuls | XMulaw | XMulsw | XMulah | XMulsh => t(C::Mul, Int, Int, Int, Int),
            XDcacheCall | XIcacheIall => t(C::CacheOp, NoR, NoR, NoR, NoR),
            XDcacheCva => t(C::CacheOp, NoR, Int, NoR, NoR),
            XTlbBroadcast => t(C::CacheOp, NoR, Int, Int, NoR),
            XSync => t(C::Fence, NoR, NoR, NoR, NoR),
        }
    }

    /// Execution class shortcut.
    #[inline]
    pub fn exec_class(self) -> ExecClass {
        self.traits_of().class
    }

    /// Whether this op is one of the XT-910 custom (non-standard) extensions.
    pub fn is_custom(self) -> bool {
        self.mnemonic().starts_with("x.")
    }

    /// Whether this op belongs to the vector extension.
    #[inline]
    pub fn is_vector(self) -> bool {
        self.exec_class().is_vector() || matches!(self, Op::Vsetvl | Op::Vsetvli)
    }

    /// Assembly mnemonic (lower-case, dotted).
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Lui => "lui",
            Auipc => "auipc",
            Jal => "jal",
            Jalr => "jalr",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Bltu => "bltu",
            Bgeu => "bgeu",
            Lb => "lb",
            Lh => "lh",
            Lw => "lw",
            Ld => "ld",
            Lbu => "lbu",
            Lhu => "lhu",
            Lwu => "lwu",
            Sb => "sb",
            Sh => "sh",
            Sw => "sw",
            Sd => "sd",
            Addi => "addi",
            Slti => "slti",
            Sltiu => "sltiu",
            Xori => "xori",
            Ori => "ori",
            Andi => "andi",
            Slli => "slli",
            Srli => "srli",
            Srai => "srai",
            Add => "add",
            Sub => "sub",
            Sll => "sll",
            Slt => "slt",
            Sltu => "sltu",
            Xor => "xor",
            Srl => "srl",
            Sra => "sra",
            Or => "or",
            And => "and",
            Fence => "fence",
            FenceI => "fence.i",
            Ecall => "ecall",
            Ebreak => "ebreak",
            Addiw => "addiw",
            Slliw => "slliw",
            Srliw => "srliw",
            Sraiw => "sraiw",
            Addw => "addw",
            Subw => "subw",
            Sllw => "sllw",
            Srlw => "srlw",
            Sraw => "sraw",
            Mul => "mul",
            Mulh => "mulh",
            Mulhsu => "mulhsu",
            Mulhu => "mulhu",
            Div => "div",
            Divu => "divu",
            Rem => "rem",
            Remu => "remu",
            Mulw => "mulw",
            Divw => "divw",
            Divuw => "divuw",
            Remw => "remw",
            Remuw => "remuw",
            LrW => "lr.w",
            LrD => "lr.d",
            ScW => "sc.w",
            ScD => "sc.d",
            AmoSwapW => "amoswap.w",
            AmoAddW => "amoadd.w",
            AmoXorW => "amoxor.w",
            AmoAndW => "amoand.w",
            AmoOrW => "amoor.w",
            AmoMinW => "amomin.w",
            AmoMaxW => "amomax.w",
            AmoMinuW => "amominu.w",
            AmoMaxuW => "amomaxu.w",
            AmoSwapD => "amoswap.d",
            AmoAddD => "amoadd.d",
            AmoXorD => "amoxor.d",
            AmoAndD => "amoand.d",
            AmoOrD => "amoor.d",
            AmoMinD => "amomin.d",
            AmoMaxD => "amomax.d",
            AmoMinuD => "amominu.d",
            AmoMaxuD => "amomaxu.d",
            Flw => "flw",
            Fsw => "fsw",
            FmaddS => "fmadd.s",
            FmsubS => "fmsub.s",
            FnmsubS => "fnmsub.s",
            FnmaddS => "fnmadd.s",
            FaddS => "fadd.s",
            FsubS => "fsub.s",
            FmulS => "fmul.s",
            FdivS => "fdiv.s",
            FsqrtS => "fsqrt.s",
            FsgnjS => "fsgnj.s",
            FsgnjnS => "fsgnjn.s",
            FsgnjxS => "fsgnjx.s",
            FminS => "fmin.s",
            FmaxS => "fmax.s",
            FcvtWS => "fcvt.w.s",
            FcvtWuS => "fcvt.wu.s",
            FcvtLS => "fcvt.l.s",
            FcvtLuS => "fcvt.lu.s",
            FmvXW => "fmv.x.w",
            FeqS => "feq.s",
            FltS => "flt.s",
            FleS => "fle.s",
            FclassS => "fclass.s",
            FcvtSW => "fcvt.s.w",
            FcvtSWu => "fcvt.s.wu",
            FcvtSL => "fcvt.s.l",
            FcvtSLu => "fcvt.s.lu",
            FmvWX => "fmv.w.x",
            Fld => "fld",
            Fsd => "fsd",
            FmaddD => "fmadd.d",
            FmsubD => "fmsub.d",
            FnmsubD => "fnmsub.d",
            FnmaddD => "fnmadd.d",
            FaddD => "fadd.d",
            FsubD => "fsub.d",
            FmulD => "fmul.d",
            FdivD => "fdiv.d",
            FsqrtD => "fsqrt.d",
            FsgnjD => "fsgnj.d",
            FsgnjnD => "fsgnjn.d",
            FsgnjxD => "fsgnjx.d",
            FminD => "fmin.d",
            FmaxD => "fmax.d",
            FcvtSD => "fcvt.s.d",
            FcvtDS => "fcvt.d.s",
            FeqD => "feq.d",
            FltD => "flt.d",
            FleD => "fle.d",
            FclassD => "fclass.d",
            FcvtWD => "fcvt.w.d",
            FcvtWuD => "fcvt.wu.d",
            FcvtLD => "fcvt.l.d",
            FcvtLuD => "fcvt.lu.d",
            FcvtDW => "fcvt.d.w",
            FcvtDWu => "fcvt.d.wu",
            FcvtDL => "fcvt.d.l",
            FcvtDLu => "fcvt.d.lu",
            FmvXD => "fmv.x.d",
            FmvDX => "fmv.d.x",
            Csrrw => "csrrw",
            Csrrs => "csrrs",
            Csrrc => "csrrc",
            Csrrwi => "csrrwi",
            Csrrsi => "csrrsi",
            Csrrci => "csrrci",
            Mret => "mret",
            Sret => "sret",
            Wfi => "wfi",
            SfenceVma => "sfence.vma",
            Vsetvli => "vsetvli",
            Vsetvl => "vsetvl",
            Vle => "vle.v",
            Vse => "vse.v",
            Vlse => "vlse.v",
            Vsse => "vsse.v",
            Vlxe => "vlxe.v",
            Vsxe => "vsxe.v",
            VaddVV => "vadd.vv",
            VaddVX => "vadd.vx",
            VaddVI => "vadd.vi",
            VsubVV => "vsub.vv",
            VsubVX => "vsub.vx",
            VrsubVX => "vrsub.vx",
            VandVV => "vand.vv",
            VandVX => "vand.vx",
            VorVV => "vor.vv",
            VorVX => "vor.vx",
            VxorVV => "vxor.vv",
            VxorVX => "vxor.vx",
            VsllVV => "vsll.vv",
            VsllVX => "vsll.vx",
            VsrlVV => "vsrl.vv",
            VsrlVX => "vsrl.vx",
            VsraVV => "vsra.vv",
            VsraVX => "vsra.vx",
            VminVV => "vmin.vv",
            VminuVV => "vminu.vv",
            VmaxVV => "vmax.vv",
            VmaxuVV => "vmaxu.vv",
            VmulVV => "vmul.vv",
            VmulVX => "vmul.vx",
            VmulhVV => "vmulh.vv",
            VmaccVV => "vmacc.vv",
            VmaccVX => "vmacc.vx",
            VnmsacVV => "vnmsac.vv",
            VdivVV => "vdiv.vv",
            VdivuVV => "vdivu.vv",
            VremVV => "vrem.vv",
            VwmulVV => "vwmul.vv",
            VwmuluVV => "vwmulu.vv",
            VwmaccVV => "vwmacc.vv",
            VwmaccuVV => "vwmaccu.vv",
            VredsumVS => "vredsum.vs",
            VredmaxVS => "vredmax.vs",
            VmvVV => "vmv.v.v",
            VmvVX => "vmv.v.x",
            VmvVI => "vmv.v.i",
            VmvXS => "vmv.x.s",
            VmvSX => "vmv.s.x",
            Vslidedown => "vslidedown.vx",
            Vslideup => "vslideup.vx",
            VfaddVV => "vfadd.vv",
            VfaddVF => "vfadd.vf",
            VfsubVV => "vfsub.vv",
            VfmulVV => "vfmul.vv",
            VfmulVF => "vfmul.vf",
            VfdivVV => "vfdiv.vv",
            VfmaccVV => "vfmacc.vv",
            VfmaccVF => "vfmacc.vf",
            VfnmsacVV => "vfnmsac.vv",
            VfminVV => "vfmin.vv",
            VfmaxVV => "vfmax.vv",
            VfredsumVS => "vfredsum.vs",
            VfsqrtV => "vfsqrt.v",
            XLrb => "x.lrb",
            XLrbu => "x.lrbu",
            XLrh => "x.lrh",
            XLrhu => "x.lrhu",
            XLrw => "x.lrw",
            XLrwu => "x.lrwu",
            XLrd => "x.lrd",
            XSrb => "x.srb",
            XSrh => "x.srh",
            XSrw => "x.srw",
            XSrd => "x.srd",
            XLurw => "x.lurw",
            XLurd => "x.lurd",
            XAddsl => "x.addsl",
            XAdduw => "x.adduw",
            XZextw => "x.zextw",
            XExt => "x.ext",
            XExtu => "x.extu",
            XFf0 => "x.ff0",
            XFf1 => "x.ff1",
            XRev => "x.rev",
            XTst => "x.tst",
            XSrri => "x.srri",
            XMveqz => "x.mveqz",
            XMvnez => "x.mvnez",
            XMula => "x.mula",
            XMuls => "x.muls",
            XMulaw => "x.mulaw",
            XMulsw => "x.mulsw",
            XMulah => "x.mulah",
            XMulsh => "x.mulsh",
            XDcacheCall => "x.dcache.call",
            XDcacheCva => "x.dcache.cva",
            XIcacheIall => "x.icache.iall",
            XTlbBroadcast => "x.tlb.bcast",
            XSync => "x.sync",
        }
    }

    /// Size in bytes of a scalar memory access performed by this op, or 0.
    pub fn mem_size(self) -> u8 {
        use Op::*;
        match self {
            Lb | Lbu | Sb | XLrb | XLrbu | XSrb => 1,
            Lh | Lhu | Sh | XLrh | XLrhu | XSrh => 2,
            Lw | Lwu | Sw | Flw | Fsw | LrW | ScW | XLrw | XLrwu | XSrw | XLurw => 4,
            Ld | Sd | Fld | Fsd | LrD | ScD | XLrd | XSrd | XLurd => 8,
            AmoSwapW | AmoAddW | AmoXorW | AmoAndW | AmoOrW | AmoMinW | AmoMaxW | AmoMinuW
            | AmoMaxuW => 4,
            AmoSwapD | AmoAddD | AmoXorD | AmoAndD | AmoOrD | AmoMinD | AmoMaxD | AmoMinuD
            | AmoMaxuD => 8,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(Op::Beq.exec_class().is_ctrl());
        assert!(Op::Ld.exec_class().is_mem());
        assert!(Op::VaddVV.exec_class().is_vector());
        assert!(!Op::Add.exec_class().is_mem());
    }

    #[test]
    fn custom_prefix() {
        assert!(Op::XLrw.is_custom());
        assert!(Op::XMula.is_custom());
        assert!(!Op::Add.is_custom());
        assert!(!Op::VaddVV.is_custom());
    }

    #[test]
    fn store_reads_data_register() {
        let t = Op::Sd.traits_of();
        assert_eq!(t.rd, RegFile::None);
        assert_eq!(t.rs1, RegFile::Int);
        assert_eq!(t.rs2, RegFile::Int);
    }

    #[test]
    fn fma_reads_three_fp_sources() {
        let t = Op::FmaddD.traits_of();
        assert_eq!(t.rs3, RegFile::Fp);
        assert_eq!(t.rd, RegFile::Fp);
    }

    #[test]
    fn mem_sizes() {
        assert_eq!(Op::Lb.mem_size(), 1);
        assert_eq!(Op::Sd.mem_size(), 8);
        assert_eq!(Op::Add.mem_size(), 0);
        assert_eq!(Op::AmoAddW.mem_size(), 4);
    }

    #[test]
    fn traits_table_matches_the_definition_for_every_op() {
        assert_eq!(Op::ALL.len(), Op::XSync as usize + 1);
        for (i, &op) in Op::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?} out of discriminant order");
            assert_eq!(op.traits_of(), op.describe(), "{op:?}");
        }
    }

    #[test]
    fn vector_predicates() {
        assert!(Op::Vsetvli.is_vector());
        assert!(Op::Vle.is_vector());
        assert!(!Op::Ld.is_vector());
    }
}
