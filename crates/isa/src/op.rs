//! The op table: one row per instruction.
//!
//! Every instruction the simulator understands — RV64IMAFDC, Zicsr,
//! privileged, RVV 0.7.1 subset, and the XT-910 custom extensions — is one
//! row of the table below, and the row is the one place it is defined: its
//! [`Op`] variant, its mnemonic, its execution class and operand register
//! files ([`OpTraits`], what the timing models read), and its encoding
//! (a [`Format`] and the fixed bits). [`Op`], [`Op::ALL`],
//! [`Op::traits_of`], [`Op::mnemonic`], [`crate::encode::encode`],
//! [`crate::decode::decode`] and the disassembler's operand layout are all
//! read from it. Operand *values* live in [`crate::inst::Inst`].

use crate::format::{self, Format};

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

/// One row of the op table, less its traits (in [`TRAITS`]).
pub(crate) struct Row {
    pub(crate) mnemonic: &'static str,
    pub(crate) format: &'static Format,
    /// The bits every encoding of the op has: opcode, funct3, funct7, ...
    pub(crate) bits: u32,
}

/// The traits of a row: `files` names the register file of rd, rs1, rs2
/// and rs3, one letter each: `i`nt, `f`p, `v`ector or `-` (none).
const fn traits(class: ExecClass, files: &str) -> OpTraits {
    const fn file(c: u8) -> RegFile {
        match c {
            b'i' => RegFile::Int,
            b'f' => RegFile::Fp,
            b'v' => RegFile::Vec,
            b'-' => RegFile::None,
            _ => panic!("register file is one of i, f, v, -"),
        }
    }
    let f = files.as_bytes();
    assert!(f.len() == 4);
    OpTraits {
        class,
        rd: file(f[0]),
        rs1: file(f[1]),
        rs2: file(f[2]),
        rs3: file(f[3]),
    }
}

// Major opcodes (bits 6:0).
const LUI: u32 = 0x37;
const AUIPC: u32 = 0x17;
const JAL: u32 = 0x6f;
const JALR: u32 = 0x67;
const BRANCH: u32 = 0x63;
const LOAD: u32 = 0x03;
const STORE: u32 = 0x23;
const OP_IMM: u32 = 0x13;
const OP: u32 = 0x33;
const MISC_MEM: u32 = 0x0f;
const OP_IMM_32: u32 = 0x1b;
const OP_32: u32 = 0x3b;
const LOAD_FP: u32 = 0x07;
const STORE_FP: u32 = 0x27;
const MADD: u32 = 0x43;
const MSUB: u32 = 0x47;
const NMSUB: u32 = 0x4b;
const NMADD: u32 = 0x4f;
const AMO: u32 = 0x2f;
const OP_FP: u32 = 0x53;
const SYSTEM: u32 = 0x73;
const OP_V: u32 = 0x57;
/// The XT-910 extensions: register forms.
const CUSTOM_0: u32 = 0x0b;
/// The XT-910 extensions: immediate forms.
const CUSTOM_1: u32 = 0x2b;

// Fixed bits from their fields.
const fn f3(opcode: u32, funct3: u32) -> u32 {
    opcode | funct3 << 12
}
const fn r(opcode: u32, funct3: u32, funct7: u32) -> u32 {
    f3(opcode, funct3) | funct7 << 25
}
/// OP-FP with a fixed rs2 selector.
const fn sel(funct3: u32, funct7: u32, rs2: u32) -> u32 {
    r(OP_FP, funct3, funct7) | rs2 << 20
}
const fn amo(funct3: u32, funct5: u32) -> u32 {
    f3(AMO, funct3) | funct5 << 27
}
/// custom-0: funct5 in 31:27 above a 2-bit shift or zero field.
const fn xt(funct3: u32, funct5: u32) -> u32 {
    f3(CUSTOM_0, funct3) | funct5 << 27
}
/// Fused multiply-add with its fmt field (0 = S, 1 = D).
const fn r4(opcode: u32, fmt: u32) -> u32 {
    opcode | fmt << 25
}
/// OP-V arithmetic, unmasked (vm = 1): the subset has no masking.
const fn opv(funct3: u32, funct6: u32) -> u32 {
    f3(OP_V, funct3) | 1 << 25 | funct6 << 26
}

/// Declares [`Op`], [`Op::ALL`], the table rows and their traits from one
/// list.
macro_rules! ops {
    ($($(#[$meta:meta])* $name:ident $mnemonic:literal $class:ident $files:literal $format:ident $bits:expr;)*) => {
        /// Every operation of the simulated ISA.
        ///
        /// Naming follows the assembly mnemonic, camel-cased; `W`-suffixed
        /// variants are the RV64 32-bit-result forms. Custom XT-910
        /// extension operations are prefixed with `X`.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        #[allow(missing_docs)] // variants mirror standard mnemonics
        pub enum Op { $($(#[$meta])* $name,)* }

        impl Op {
            /// Every operation, in discriminant order (`ALL[op as usize] == op`).
            pub const ALL: &'static [Op] = &[$(Op::$name),*];
        }

        /// The op table, in discriminant order.
        pub(crate) static ROWS: [Row; Op::ALL.len()] = [$(Row {
            mnemonic: $mnemonic,
            format: &format::$format,
            bits: $bits,
        }),*];

        /// The traits column on its own, for the timing models, which
        /// ask for an op's traits on every instruction.
        static TRAITS: [OpTraits; Op::ALL.len()] = [$(traits(ExecClass::$class, $files)),*];
    };
}

ops! {
    // variant    mnemonic        class    files   format fixed bits
    // ---- RV32I/RV64I base ----
    Lui           "lui"           Alu      "i---"  U      LUI;
    Auipc         "auipc"         Alu      "i---"  U      AUIPC;
    Jal           "jal"           Jump     "i---"  J      JAL;
    Jalr          "jalr"          JumpInd  "ii--"  JR     JALR;
    Beq           "beq"           Branch   "-ii-"  B      f3(BRANCH, 0);
    Bne           "bne"           Branch   "-ii-"  B      f3(BRANCH, 1);
    Blt           "blt"           Branch   "-ii-"  B      f3(BRANCH, 4);
    Bge           "bge"           Branch   "-ii-"  B      f3(BRANCH, 5);
    Bltu          "bltu"          Branch   "-ii-"  B      f3(BRANCH, 6);
    Bgeu          "bgeu"          Branch   "-ii-"  B      f3(BRANCH, 7);
    Lb            "lb"            Load     "ii--"  I      f3(LOAD, 0);
    Lh            "lh"            Load     "ii--"  I      f3(LOAD, 1);
    Lw            "lw"            Load     "ii--"  I      f3(LOAD, 2);
    Ld            "ld"            Load     "ii--"  I      f3(LOAD, 3);
    Lbu           "lbu"           Load     "ii--"  I      f3(LOAD, 4);
    Lhu           "lhu"           Load     "ii--"  I      f3(LOAD, 5);
    Lwu           "lwu"           Load     "ii--"  I      f3(LOAD, 6);
    Sb            "sb"            Store    "-ii-"  S      f3(STORE, 0);
    Sh            "sh"            Store    "-ii-"  S      f3(STORE, 1);
    Sw            "sw"            Store    "-ii-"  S      f3(STORE, 2);
    Sd            "sd"            Store    "-ii-"  S      f3(STORE, 3);
    Addi          "addi"          Alu      "ii--"  I      f3(OP_IMM, 0);
    Slti          "slti"          Alu      "ii--"  I      f3(OP_IMM, 2);
    Sltiu         "sltiu"         Alu      "ii--"  I      f3(OP_IMM, 3);
    Xori          "xori"          Alu      "ii--"  I      f3(OP_IMM, 4);
    Ori           "ori"           Alu      "ii--"  I      f3(OP_IMM, 6);
    Andi          "andi"          Alu      "ii--"  I      f3(OP_IMM, 7);
    Slli          "slli"          Alu      "ii--"  SH6    f3(OP_IMM, 1);
    Srli          "srli"          Alu      "ii--"  SH6    f3(OP_IMM, 5);
    Srai          "srai"          Alu      "ii--"  SRAI   r(OP_IMM, 5, 0b0100000);
    Add           "add"           Alu      "iii-"  R      r(OP, 0, 0b0000000);
    Sub           "sub"           Alu      "iii-"  R      r(OP, 0, 0b0100000);
    Sll           "sll"           Alu      "iii-"  R      r(OP, 1, 0b0000000);
    Slt           "slt"           Alu      "iii-"  R      r(OP, 2, 0b0000000);
    Sltu          "sltu"          Alu      "iii-"  R      r(OP, 3, 0b0000000);
    Xor           "xor"           Alu      "iii-"  R      r(OP, 4, 0b0000000);
    Srl           "srl"           Alu      "iii-"  R      r(OP, 5, 0b0000000);
    Sra           "sra"           Alu      "iii-"  R      r(OP, 5, 0b0100000);
    Or            "or"            Alu      "iii-"  R      r(OP, 6, 0b0000000);
    And           "and"           Alu      "iii-"  R      r(OP, 7, 0b0000000);
    Fence         "fence"         Fence    "----"  FENCE  f3(MISC_MEM, 0);
    FenceI        "fence.i"       Fence    "----"  FENCE  f3(MISC_MEM, 1);
    Ecall         "ecall"         System   "----"  SYS    0x00000073;
    Ebreak        "ebreak"        System   "----"  SYS    0x00100073;
    Addiw         "addiw"         Alu      "ii--"  I      f3(OP_IMM_32, 0);
    Slliw         "slliw"         Alu      "ii--"  SH5    f3(OP_IMM_32, 1);
    Srliw         "srliw"         Alu      "ii--"  SH5    f3(OP_IMM_32, 5);
    Sraiw         "sraiw"         Alu      "ii--"  SRAIW  r(OP_IMM_32, 5, 0b0100000);
    Addw          "addw"          Alu      "iii-"  R      r(OP_32, 0, 0b0000000);
    Subw          "subw"          Alu      "iii-"  R      r(OP_32, 0, 0b0100000);
    Sllw          "sllw"          Alu      "iii-"  R      r(OP_32, 1, 0b0000000);
    Srlw          "srlw"          Alu      "iii-"  R      r(OP_32, 5, 0b0000000);
    Sraw          "sraw"          Alu      "iii-"  R      r(OP_32, 5, 0b0100000);
    // ---- M extension ----
    Mul           "mul"           Mul      "iii-"  R      r(OP, 0, 0b0000001);
    Mulh          "mulh"          Mul      "iii-"  R      r(OP, 1, 0b0000001);
    Mulhsu        "mulhsu"        Mul      "iii-"  R      r(OP, 2, 0b0000001);
    Mulhu         "mulhu"         Mul      "iii-"  R      r(OP, 3, 0b0000001);
    Div           "div"           Div      "iii-"  R      r(OP, 4, 0b0000001);
    Divu          "divu"          Div      "iii-"  R      r(OP, 5, 0b0000001);
    Rem           "rem"           Div      "iii-"  R      r(OP, 6, 0b0000001);
    Remu          "remu"          Div      "iii-"  R      r(OP, 7, 0b0000001);
    Mulw          "mulw"          Mul      "iii-"  R      r(OP_32, 0, 0b0000001);
    Divw          "divw"          Div      "iii-"  R      r(OP_32, 4, 0b0000001);
    Divuw         "divuw"         Div      "iii-"  R      r(OP_32, 5, 0b0000001);
    Remw          "remw"          Div      "iii-"  R      r(OP_32, 6, 0b0000001);
    Remuw         "remuw"         Div      "iii-"  R      r(OP_32, 7, 0b0000001);
    // ---- A extension ----
    LrW           "lr.w"          Amo      "ii--"  LR     amo(2, 0b00010);
    LrD           "lr.d"          Amo      "ii--"  LR     amo(3, 0b00010);
    ScW           "sc.w"          Amo      "iii-"  AMO    amo(2, 0b00011);
    ScD           "sc.d"          Amo      "iii-"  AMO    amo(3, 0b00011);
    AmoSwapW      "amoswap.w"     Amo      "iii-"  AMO    amo(2, 0b00001);
    AmoAddW       "amoadd.w"      Amo      "iii-"  AMO    amo(2, 0b00000);
    AmoXorW       "amoxor.w"      Amo      "iii-"  AMO    amo(2, 0b00100);
    AmoAndW       "amoand.w"      Amo      "iii-"  AMO    amo(2, 0b01100);
    AmoOrW        "amoor.w"       Amo      "iii-"  AMO    amo(2, 0b01000);
    AmoMinW       "amomin.w"      Amo      "iii-"  AMO    amo(2, 0b10000);
    AmoMaxW       "amomax.w"      Amo      "iii-"  AMO    amo(2, 0b10100);
    AmoMinuW      "amominu.w"     Amo      "iii-"  AMO    amo(2, 0b11000);
    AmoMaxuW      "amomaxu.w"     Amo      "iii-"  AMO    amo(2, 0b11100);
    AmoSwapD      "amoswap.d"     Amo      "iii-"  AMO    amo(3, 0b00001);
    AmoAddD       "amoadd.d"      Amo      "iii-"  AMO    amo(3, 0b00000);
    AmoXorD       "amoxor.d"      Amo      "iii-"  AMO    amo(3, 0b00100);
    AmoAndD       "amoand.d"      Amo      "iii-"  AMO    amo(3, 0b01100);
    AmoOrD        "amoor.d"       Amo      "iii-"  AMO    amo(3, 0b01000);
    AmoMinD       "amomin.d"      Amo      "iii-"  AMO    amo(3, 0b10000);
    AmoMaxD       "amomax.d"      Amo      "iii-"  AMO    amo(3, 0b10100);
    AmoMinuD      "amominu.d"     Amo      "iii-"  AMO    amo(3, 0b11000);
    AmoMaxuD      "amomaxu.d"     Amo      "iii-"  AMO    amo(3, 0b11100);
    // ---- F extension (single-precision) ----
    Flw           "flw"           Load     "fi--"  I      f3(LOAD_FP, 2);
    Fsw           "fsw"           Store    "-if-"  S      f3(STORE_FP, 2);
    FmaddS        "fmadd.s"       FpMul    "ffff"  R4     r4(MADD, 0);
    FmsubS        "fmsub.s"       FpMul    "ffff"  R4     r4(MSUB, 0);
    FnmsubS       "fnmsub.s"      FpMul    "ffff"  R4     r4(NMSUB, 0);
    FnmaddS       "fnmadd.s"      FpMul    "ffff"  R4     r4(NMADD, 0);
    FaddS         "fadd.s"        FpAdd    "fff-"  R      r(OP_FP, 7, 0b0000000);
    FsubS         "fsub.s"        FpAdd    "fff-"  R      r(OP_FP, 7, 0b0000100);
    FmulS         "fmul.s"        FpMul    "fff-"  R      r(OP_FP, 7, 0b0001000);
    FdivS         "fdiv.s"        FpDiv    "fff-"  R      r(OP_FP, 7, 0b0001100);
    FsqrtS        "fsqrt.s"       FpDiv    "ff--"  R1     sel(7, 0b0101100, 0);
    FsgnjS        "fsgnj.s"       FpAdd    "fff-"  R      r(OP_FP, 0, 0b0010000);
    FsgnjnS       "fsgnjn.s"      FpAdd    "fff-"  R      r(OP_FP, 1, 0b0010000);
    FsgnjxS       "fsgnjx.s"      FpAdd    "fff-"  R      r(OP_FP, 2, 0b0010000);
    FminS         "fmin.s"        FpAdd    "fff-"  R      r(OP_FP, 0, 0b0010100);
    FmaxS         "fmax.s"        FpAdd    "fff-"  R      r(OP_FP, 1, 0b0010100);
    FcvtWS        "fcvt.w.s"      FpCvt    "if--"  R1     sel(7, 0b1100000, 0);
    FcvtWuS       "fcvt.wu.s"     FpCvt    "if--"  R1     sel(7, 0b1100000, 1);
    FcvtLS        "fcvt.l.s"      FpCvt    "if--"  R1     sel(7, 0b1100000, 2);
    FcvtLuS       "fcvt.lu.s"     FpCvt    "if--"  R1     sel(7, 0b1100000, 3);
    FmvXW         "fmv.x.w"       FpCvt    "if--"  R1     sel(0, 0b1110000, 0);
    FeqS          "feq.s"         FpAdd    "iff-"  R      r(OP_FP, 2, 0b1010000);
    FltS          "flt.s"         FpAdd    "iff-"  R      r(OP_FP, 1, 0b1010000);
    FleS          "fle.s"         FpAdd    "iff-"  R      r(OP_FP, 0, 0b1010000);
    FclassS       "fclass.s"      FpCvt    "if--"  R1     sel(1, 0b1110000, 0);
    FcvtSW        "fcvt.s.w"      FpCvt    "fi--"  R1     sel(7, 0b1101000, 0);
    FcvtSWu       "fcvt.s.wu"     FpCvt    "fi--"  R1     sel(7, 0b1101000, 1);
    FcvtSL        "fcvt.s.l"      FpCvt    "fi--"  R1     sel(7, 0b1101000, 2);
    FcvtSLu       "fcvt.s.lu"     FpCvt    "fi--"  R1     sel(7, 0b1101000, 3);
    FmvWX         "fmv.w.x"       FpCvt    "fi--"  R1     sel(0, 0b1111000, 0);
    // ---- D extension (double-precision) ----
    Fld           "fld"           Load     "fi--"  I      f3(LOAD_FP, 3);
    Fsd           "fsd"           Store    "-if-"  S      f3(STORE_FP, 3);
    FmaddD        "fmadd.d"       FpMul    "ffff"  R4     r4(MADD, 1);
    FmsubD        "fmsub.d"       FpMul    "ffff"  R4     r4(MSUB, 1);
    FnmsubD       "fnmsub.d"      FpMul    "ffff"  R4     r4(NMSUB, 1);
    FnmaddD       "fnmadd.d"      FpMul    "ffff"  R4     r4(NMADD, 1);
    FaddD         "fadd.d"        FpAdd    "fff-"  R      r(OP_FP, 7, 0b0000001);
    FsubD         "fsub.d"        FpAdd    "fff-"  R      r(OP_FP, 7, 0b0000101);
    FmulD         "fmul.d"        FpMul    "fff-"  R      r(OP_FP, 7, 0b0001001);
    FdivD         "fdiv.d"        FpDiv    "fff-"  R      r(OP_FP, 7, 0b0001101);
    FsqrtD        "fsqrt.d"       FpDiv    "ff--"  R1     sel(7, 0b0101101, 0);
    FsgnjD        "fsgnj.d"       FpAdd    "fff-"  R      r(OP_FP, 0, 0b0010001);
    FsgnjnD       "fsgnjn.d"      FpAdd    "fff-"  R      r(OP_FP, 1, 0b0010001);
    FsgnjxD       "fsgnjx.d"      FpAdd    "fff-"  R      r(OP_FP, 2, 0b0010001);
    FminD         "fmin.d"        FpAdd    "fff-"  R      r(OP_FP, 0, 0b0010101);
    FmaxD         "fmax.d"        FpAdd    "fff-"  R      r(OP_FP, 1, 0b0010101);
    FcvtSD        "fcvt.s.d"      FpCvt    "ff--"  R1     sel(7, 0b0100000, 1);
    FcvtDS        "fcvt.d.s"      FpCvt    "ff--"  R1     sel(7, 0b0100001, 0);
    FeqD          "feq.d"         FpAdd    "iff-"  R      r(OP_FP, 2, 0b1010001);
    FltD          "flt.d"         FpAdd    "iff-"  R      r(OP_FP, 1, 0b1010001);
    FleD          "fle.d"         FpAdd    "iff-"  R      r(OP_FP, 0, 0b1010001);
    FclassD       "fclass.d"      FpCvt    "if--"  R1     sel(1, 0b1110001, 0);
    FcvtWD        "fcvt.w.d"      FpCvt    "if--"  R1     sel(7, 0b1100001, 0);
    FcvtWuD       "fcvt.wu.d"     FpCvt    "if--"  R1     sel(7, 0b1100001, 1);
    FcvtLD        "fcvt.l.d"      FpCvt    "if--"  R1     sel(7, 0b1100001, 2);
    FcvtLuD       "fcvt.lu.d"     FpCvt    "if--"  R1     sel(7, 0b1100001, 3);
    FcvtDW        "fcvt.d.w"      FpCvt    "fi--"  R1     sel(7, 0b1101001, 0);
    FcvtDWu       "fcvt.d.wu"     FpCvt    "fi--"  R1     sel(7, 0b1101001, 1);
    FcvtDL        "fcvt.d.l"      FpCvt    "fi--"  R1     sel(7, 0b1101001, 2);
    FcvtDLu       "fcvt.d.lu"     FpCvt    "fi--"  R1     sel(7, 0b1101001, 3);
    FmvXD         "fmv.x.d"       FpCvt    "if--"  R1     sel(0, 0b1110001, 0);
    FmvDX         "fmv.d.x"       FpCvt    "fi--"  R1     sel(0, 0b1111001, 0);
    // ---- Zicsr ----
    Csrrw         "csrrw"         Csr      "ii--"  CSR    f3(SYSTEM, 1);
    Csrrs         "csrrs"         Csr      "ii--"  CSR    f3(SYSTEM, 2);
    Csrrc         "csrrc"         Csr      "ii--"  CSR    f3(SYSTEM, 3);
    Csrrwi        "csrrwi"        Csr      "i---"  CSR    f3(SYSTEM, 5);
    Csrrsi        "csrrsi"        Csr      "i---"  CSR    f3(SYSTEM, 6);
    Csrrci        "csrrci"        Csr      "i---"  CSR    f3(SYSTEM, 7);
    // ---- privileged ----
    Mret          "mret"          System   "----"  SYS    0x30200073;
    Sret          "sret"          System   "----"  SYS    0x10200073;
    Wfi           "wfi"           System   "----"  SYS    0x10500073;
    SfenceVma     "sfence.vma"    Fence    "-ii-"  SFENCE r(SYSTEM, 0, 0b0001001);
    // ---- RVV 0.7.1 subset ----
    /// `vsetvli rd, rs1, vtypei`
    Vsetvli       "vsetvli"       VSet     "ii--"  VSETI  f3(OP_V, 7);
    /// `vsetvl rd, rs1, rs2`
    Vsetvl        "vsetvl"        VSet     "iii-"  VSET   r(OP_V, 7, 0b1000000);
    /// Unit-stride vector load of SEW-sized elements (`vle.v` in 0.7.1).
    Vle           "vle.v"         VecLoad  "vi--"  VL     r(LOAD_FP, 7, 0b0000001);
    /// Unit-stride vector store.
    Vse           "vse.v"         VecStore "-i-v"  VS     r(STORE_FP, 7, 0b0000001);
    /// Strided vector load (`vlse.v`); stride in rs2 (bytes).
    Vlse          "vlse.v"        VecLoad  "vii-"  R      r(LOAD_FP, 7, 0b0000101);
    /// Strided vector store.
    Vsse          "vsse.v"        VecStore "-iiv"  VSS    r(STORE_FP, 7, 0b0000101);
    /// Indexed (gather) vector load (`vlxe.v`); indices in vs2.
    Vlxe          "vlxe.v"        VecLoad  "vi-v"  VLX    r(LOAD_FP, 7, 0b0000111);
    /// Indexed (scatter) vector store.
    Vsxe          "vsxe.v"        VecStore "-ivv"  VSS    r(STORE_FP, 7, 0b0000111);
    VaddVV        "vadd.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b000000);
    VaddVX        "vadd.vx"       VecAlu   "vvi-"  OPV    opv(4, 0b000000);
    VaddVI        "vadd.vi"       VecAlu   "vv--"  OPVI   opv(3, 0b000000);
    VsubVV        "vsub.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b000010);
    VsubVX        "vsub.vx"       VecAlu   "vvi-"  OPV    opv(4, 0b000010);
    VrsubVX       "vrsub.vx"      VecAlu   "vvi-"  OPV    opv(4, 0b000011);
    VandVV        "vand.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b001001);
    VandVX        "vand.vx"       VecAlu   "vvi-"  OPV    opv(4, 0b001001);
    VorVV         "vor.vv"        VecAlu   "vvv-"  OPV    opv(0, 0b001010);
    VorVX         "vor.vx"        VecAlu   "vvi-"  OPV    opv(4, 0b001010);
    VxorVV        "vxor.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b001011);
    VxorVX        "vxor.vx"       VecAlu   "vvi-"  OPV    opv(4, 0b001011);
    VsllVV        "vsll.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b100101);
    VsllVX        "vsll.vx"       VecAlu   "vvi-"  OPV    opv(4, 0b100101);
    VsrlVV        "vsrl.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b101000);
    VsrlVX        "vsrl.vx"       VecAlu   "vvi-"  OPV    opv(4, 0b101000);
    VsraVV        "vsra.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b101001);
    VsraVX        "vsra.vx"       VecAlu   "vvi-"  OPV    opv(4, 0b101001);
    VminVV        "vmin.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b000101);
    VminuVV       "vminu.vv"      VecAlu   "vvv-"  OPV    opv(0, 0b000100);
    VmaxVV        "vmax.vv"       VecAlu   "vvv-"  OPV    opv(0, 0b000111);
    VmaxuVV       "vmaxu.vv"      VecAlu   "vvv-"  OPV    opv(0, 0b000110);
    VmulVV        "vmul.vv"       VecMul   "vvv-"  OPV    opv(2, 0b100101);
    VmulVX        "vmul.vx"       VecMul   "vvi-"  OPV    opv(6, 0b100101);
    VmulhVV       "vmulh.vv"      VecMul   "vvv-"  OPV    opv(2, 0b100111);
    VmaccVV       "vmacc.vv"      VecMul   "vvvv"  OPVM   opv(2, 0b101101);
    VmaccVX       "vmacc.vx"      VecMul   "vviv"  OPVM   opv(6, 0b101101);
    VnmsacVV      "vnmsac.vv"     VecMul   "vvvv"  OPVM   opv(2, 0b101111);
    VdivVV        "vdiv.vv"       VecDiv   "vvv-"  OPV    opv(2, 0b100001);
    VdivuVV       "vdivu.vv"      VecDiv   "vvv-"  OPV    opv(2, 0b100000);
    VremVV        "vrem.vv"       VecDiv   "vvv-"  OPV    opv(2, 0b100011);
    /// Widening integer multiply (SEW → 2·SEW).
    VwmulVV       "vwmul.vv"      VecMul   "vvv-"  OPV    opv(2, 0b111011);
    VwmuluVV      "vwmulu.vv"     VecMul   "vvv-"  OPV    opv(2, 0b111000);
    /// Widening multiply-accumulate (the 16-bit-MAC workhorse, §X).
    VwmaccVV      "vwmacc.vv"     VecMul   "vvvv"  OPVM   opv(2, 0b111101);
    VwmaccuVV     "vwmaccu.vv"    VecMul   "vvvv"  OPVM   opv(2, 0b111100);
    /// Integer reduction sum (`vredsum.vs`).
    VredsumVS     "vredsum.vs"    VecPerm  "vvv-"  OPV    opv(2, 0b000000);
    VredmaxVS     "vredmax.vs"    VecPerm  "vvv-"  OPV    opv(2, 0b000111);
    VmvVV         "vmv.v.v"       VecAlu   "vv--"  OPV    opv(0, 0b010111);
    VmvVX         "vmv.v.x"       VecAlu   "vi--"  OPV    opv(4, 0b010111);
    VmvVI         "vmv.v.i"       VecAlu   "v---"  OPVI   opv(3, 0b010111);
    /// Move scalar from vector element 0 (`vmv.x.s` / `vext.x.v` in 0.7.1).
    VmvXS         "vmv.x.s"       VecPerm  "iv--"  OPV    opv(2, 0b010000);
    VmvSX         "vmv.s.x"       VecPerm  "vi--"  OPV    opv(6, 0b010000);
    /// Slide down by scalar amount (cross-slice permutation).
    Vslidedown    "vslidedown.vx" VecPerm  "vvi-"  OPV    opv(4, 0b001111);
    Vslideup      "vslideup.vx"   VecPerm  "vvi-"  OPV    opv(4, 0b001110);
    // vector FP
    VfaddVV       "vfadd.vv"      VecFAdd  "vvv-"  OPV    opv(1, 0b000000);
    VfaddVF       "vfadd.vf"      VecFAdd  "vvf-"  OPV    opv(5, 0b000000);
    VfsubVV       "vfsub.vv"      VecFAdd  "vvv-"  OPV    opv(1, 0b000010);
    VfmulVV       "vfmul.vv"      VecMul   "vvv-"  OPV    opv(1, 0b100100);
    VfmulVF       "vfmul.vf"      VecMul   "vvf-"  OPV    opv(5, 0b100100);
    VfdivVV       "vfdiv.vv"      VecDiv   "vvv-"  OPV    opv(1, 0b100000);
    VfmaccVV      "vfmacc.vv"     VecMul   "vvvv"  OPVM   opv(1, 0b101100);
    VfmaccVF      "vfmacc.vf"     VecMul   "vvfv"  OPVM   opv(5, 0b101100);
    VfnmsacVV     "vfnmsac.vv"    VecMul   "vvvv"  OPVM   opv(1, 0b101110);
    VfminVV       "vfmin.vv"      VecFAdd  "vvv-"  OPV    opv(1, 0b000100);
    VfmaxVV       "vfmax.vv"      VecFAdd  "vvv-"  OPV    opv(1, 0b000110);
    VfredsumVS    "vfredsum.vs"   VecPerm  "vvv-"  OPV    opv(1, 0b000011);
    VfsqrtV       "vfsqrt.v"      VecDiv   "vv--"  OPV    opv(1, 0b100011);
    // ---- XT-910 custom extensions (§VIII) ----
    /// Indexed load byte: `xlrb rd, rs1, rs2, shift` — `rd = sext(mem8[rs1 + (rs2 << shift)])`.
    XLrb          "x.lrb"         Load     "iii-"  XIDX   xt(0, 0b00000);
    XLrbu         "x.lrbu"        Load     "iii-"  XIDX   xt(0, 0b00001);
    XLrh          "x.lrh"         Load     "iii-"  XIDX   xt(0, 0b00010);
    XLrhu         "x.lrhu"        Load     "iii-"  XIDX   xt(0, 0b00011);
    XLrw          "x.lrw"         Load     "iii-"  XIDX   xt(0, 0b00100);
    XLrwu         "x.lrwu"        Load     "iii-"  XIDX   xt(0, 0b00101);
    XLrd          "x.lrd"         Load     "iii-"  XIDX   xt(0, 0b00110);
    /// Indexed store: `xsrb rs2v, rs1, rs2, shift`.
    XSrb          "x.srb"         Store    "-iii"  XIDXS  xt(1, 0b00000);
    XSrh          "x.srh"         Store    "-iii"  XIDXS  xt(1, 0b00010);
    XSrw          "x.srw"         Store    "-iii"  XIDXS  xt(1, 0b00100);
    XSrd          "x.srd"         Store    "-iii"  XIDXS  xt(1, 0b00110);
    /// Indexed load with zero-extended 32-bit index (`rd = mem[rs1 + (zext32(rs2) << shift)]`).
    XLurw         "x.lurw"        Load     "iii-"  XIDX   xt(0, 0b00111);
    XLurd         "x.lurd"        Load     "iii-"  XIDX   xt(0, 0b01000);
    /// `xaddsl rd, rs1, rs2, shift` — `rd = rs1 + (rs2 << shift)` (address fusion).
    XAddsl        "x.addsl"       Alu      "iii-"  XADDSL xt(2, 0b01001);
    /// Zero-extending word add for address generation: `rd = rs1 + zext32(rs2)` (§VIII-A).
    XAdduw        "x.adduw"       Alu      "iii-"  R      xt(2, 0b01010);
    /// Zero-extend word: `rd = zext32(rs1)`.
    XZextw        "x.zextw"       Alu      "ii--"  R      xt(2, 0b01011);
    /// Bit-field extract signed: `xext rd, rs1, msb, lsb`.
    XExt          "x.ext"         Alu      "ii--"  EXT    f3(CUSTOM_1, 0);
    /// Bit-field extract unsigned.
    XExtu         "x.extu"        Alu      "ii--"  EXT    f3(CUSTOM_1, 1);
    /// Find first zero bit from MSB.
    XFf0          "x.ff0"         Alu      "ii--"  R      xt(2, 0b01100);
    /// Find first one bit from MSB.
    XFf1          "x.ff1"         Alu      "ii--"  R      xt(2, 0b01101);
    /// Byte-reverse (64-bit).
    XRev          "x.rev"         Alu      "ii--"  R      xt(2, 0b01110);
    /// Test bit `imm`: `rd = (rs1 >> imm) & 1`.
    XTst          "x.tst"         Alu      "ii--"  SH6    f3(CUSTOM_1, 2);
    /// Rotate right immediate.
    XSrri         "x.srri"        Alu      "ii--"  SH6    f3(CUSTOM_1, 3);
    /// Conditional move if zero: `rd = (rs2 == 0) ? rs1 : rd`.
    XMveqz        "x.mveqz"       Alu      "iiii"  RMAC   xt(6, 0b00000);
    /// Conditional move if non-zero.
    XMvnez        "x.mvnez"       Alu      "iiii"  RMAC   xt(6, 0b00001);
    /// Multiply-add: `rd += rs1 * rs2`.
    XMula         "x.mula"        Mul      "iiii"  RMAC   xt(4, 0b00000);
    /// Multiply-subtract: `rd -= rs1 * rs2`.
    XMuls         "x.muls"        Mul      "iiii"  RMAC   xt(4, 0b00001);
    /// 32-bit multiply-add (result sign-extended).
    XMulaw        "x.mulaw"       Mul      "iiii"  RMAC   xt(4, 0b00010);
    XMulsw        "x.mulsw"       Mul      "iiii"  RMAC   xt(4, 0b00011);
    /// 16-bit multiply-add: `rd += sext16(rs1) * sext16(rs2)`.
    XMulah        "x.mulah"       Mul      "iiii"  RMAC   xt(4, 0b00100);
    XMulsh        "x.mulsh"       Mul      "iiii"  RMAC   xt(4, 0b00101);
    /// D-cache clean+invalidate all (privileged maintenance hint).
    XDcacheCall   "x.dcache.call" CacheOp  "----"  R      xt(5, 0b00000);
    /// D-cache invalidate by VA (hint).
    XDcacheCva    "x.dcache.cva"  CacheOp  "-i--"  R      xt(5, 0b00001);
    /// I-cache invalidate all (hint).
    XIcacheIall   "x.icache.iall" CacheOp  "----"  R      xt(5, 0b00010);
    /// TLB maintenance broadcast over the coherence interconnect (§V-E).
    XTlbBroadcast "x.tlb.bcast"   CacheOp  "-ii-"  R      xt(5, 0b00011);
    /// Full pipeline/memory synchronization barrier.
    XSync         "x.sync"        Fence    "----"  R      xt(5, 0b00100);
}

impl Op {
    /// Static operand/class information for this operation.
    #[inline]
    pub fn traits_of(self) -> OpTraits {
        TRAITS[self as usize]
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
        let class = self.exec_class();
        class.is_vector() || class == ExecClass::VSet
    }

    /// Assembly mnemonic (lower-case, dotted).
    pub fn mnemonic(self) -> &'static str {
        ROWS[self as usize].mnemonic
    }

    /// Where this op's operands sit in its 32-bit encoding.
    pub fn format(self) -> &'static Format {
        ROWS[self as usize].format
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::encode::encode;
    use crate::format::Imm;
    use crate::inst::Inst;

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
    fn traits_table_matches_the_definition_for_every_op() {
        assert_eq!(Op::ALL.len(), Op::XSync as usize + 1);
        assert_eq!(TRAITS.len(), Op::ALL.len());
        for (i, &op) in Op::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?} out of discriminant order");
        }
    }

    /// One row per op, in discriminant order, each with its own mnemonic
    /// and fixed bits; the fixed bits lie inside the decode mask and
    /// outside every operand field; and the row's word with all-zero
    /// and with maximal operands decodes back to the op.
    #[test]
    fn every_op_has_one_row_that_round_trips() {
        assert_eq!(ROWS.len(), Op::ALL.len());
        for (i, row) in ROWS.iter().enumerate() {
            let op = Op::ALL[i];
            assert_eq!(op as usize, i);
            for other in &ROWS[..i] {
                assert_ne!(row.mnemonic, other.mnemonic);
                assert_ne!(row.bits, other.bits, "{op:?}");
            }
            let f = row.format;
            assert_eq!(row.bits & !f.mask, 0, "{op:?}: fixed bits outside the mask");
            let zero = Inst::new(op);
            assert_eq!(encode(&zero), Ok(row.bits), "{op:?}");
            let mut max = Inst::new(op);
            for (k, &at) in f.regs.iter().enumerate() {
                let field = if at == 0 { 0 } else { 0x1f << at };
                assert_eq!(
                    row.bits & field,
                    0,
                    "{op:?}: a fixed bit in an operand field"
                );
                let r = if at == 0 { 0 } else { 31 };
                match k {
                    0 => max.rd = r,
                    1 => max.rs1 = r,
                    2 => max.rs2 = r,
                    _ => max.rs3 = r,
                }
            }
            max.imm = f.imm.range().map_or(0, |(_, hi, _)| hi);
            for inst in [zero, max] {
                let w = encode(&inst).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(decode(w), Ok(inst), "{op:?} {w:#010x}");
            }
            if f.imm != Imm::None {
                let (lo, hi, _) = f.imm.range().unwrap();
                assert!(encode(&zero.imm(lo - 1)).is_err() && encode(&zero.imm(hi + 1)).is_err());
            }
        }
    }

    #[test]
    fn vector_predicates() {
        assert!(Op::Vsetvli.is_vector());
        assert!(Op::Vle.is_vector());
        assert!(!Op::Ld.is_vector());
    }
}
