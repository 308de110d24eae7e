//! # xt-isa — instruction-set definitions for the Xuantie-910 reproduction
//!
//! This crate defines the guest instruction set executed and modeled by the
//! rest of the workspace:
//!
//! * the RV64IMAFDC base ISA (a.k.a. RV64GC) with Zicsr and the privileged
//!   instructions the paper's mechanisms need (`sfence.vma`, `mret`, ...),
//! * a subset of the **RISC-V vector extension, 0.7.1 stable release** — the
//!   version the XT-910 implements — sufficient for the paper's AI/MAC and
//!   STREAM-style evaluations (see [`vector`]),
//! * the **XT-910 custom extensions** described in §VIII of the paper:
//!   register+register addressed (indexed) loads/stores, zero-extending
//!   address generation, bit-manipulation, multiply-accumulate, and
//!   cache/TLB maintenance hints (see [`op::Op`] variants prefixed `X`).
//!
//! Each instruction is one row of the op table in [`op`]: its variant,
//! mnemonic, execution class, operand register files and encoding (a
//! [`format::Format`] and the fixed bits). The crate provides a
//! decoded-instruction type ([`inst::Inst`]) and, read from that table,
//! a binary decoder ([`mod@decode`]), an encoder used by the `xt-asm`
//! assembler ([`encode`]), and a disassembler ([`disasm`]).
//!
//! # Example
//!
//! ```
//! use xt_isa::{decode::decode, op::Op};
//!
//! // addi x5, x6, 42
//! let word = 0x02A30293;
//! let inst = decode(word).expect("valid instruction");
//! assert_eq!(inst.op, Op::Addi);
//! assert_eq!(inst.rd, 5);
//! assert_eq!(inst.rs1, 6);
//! assert_eq!(inst.imm, 42);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod format;
pub mod inst;
pub mod op;
pub mod reg;
pub mod vector;

pub use decode::{decode, decode_compressed, DecodeError};
pub use inst::Inst;
pub use op::{ExecClass, Op, RegFile};
pub use reg::{Fpr, Gpr, Vr};
pub use vector::{Sew, VType};
