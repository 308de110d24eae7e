//! # xt-asm — assembler / program builder
//!
//! Benchmarks and tests in this workspace construct guest programs
//! programmatically rather than via an external toolchain. [`Asm`] is a
//! builder over [`xt_isa`]'s encoder: it manages a text section with labels
//! and forward references, a data section with named symbols, and the
//! pseudo-instructions (`li`, `la`, `call`, `ret`, ...) a real assembler
//! provides. [`Program`] is the finished, loadable image.
//!
//! # Example
//!
//! ```
//! use xt_asm::Asm;
//! use xt_isa::reg::Gpr;
//!
//! # fn main() -> Result<(), xt_asm::AsmError> {
//! let mut a = Asm::new();
//! let done = a.new_label();
//! a.li(Gpr::A0, 10);
//! a.li(Gpr::A1, 0);
//! let top = a.here();
//! a.add(Gpr::A1, Gpr::A1, Gpr::A0);
//! a.addi(Gpr::A0, Gpr::A0, -1);
//! a.beqz(Gpr::A0, done);
//! a.jump(top);
//! a.bind(done)?;
//! a.halt();
//! let prog = a.finish()?;
//! assert!(prog.text_len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod builder;
mod program;

pub use builder::{Asm, AsmError, Label};
pub use program::{Program, Symbol, DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, HALT_ADDR};
