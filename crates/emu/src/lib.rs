//! # xt-emu — functional RV64GCV emulator (golden model)
//!
//! Executes guest programs built with [`xt_asm`] at architecture level:
//! full RV64IMAFDC semantics, the RVV 0.7.1 subset, the XT-910 custom
//! extensions, M/S/U privilege modes, traps, and SV39 address translation.
//!
//! The emulator serves three roles in the workspace:
//!
//! 1. **Golden model** — unit and property tests check instruction
//!    semantics against it.
//! 2. **Trace generator** — [`trace::TraceSource`] yields the committed
//!    dynamic instruction stream (PCs, branch outcomes, memory addresses)
//!    that the `xt-core` timing models replay through the XT-910 pipeline
//!    structure (trace-driven simulation; see DESIGN.md §3).
//! 3. **Workload runner** — benchmark kernels validate their own results
//!    by running functionally first.
//!
//! # Example
//!
//! ```
//! use xt_asm::Asm;
//! use xt_emu::Emulator;
//! use xt_isa::reg::Gpr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(Gpr::A0, 21);
//! a.add(Gpr::A0, Gpr::A0, Gpr::A0);
//! a.halt();
//! let prog = a.finish()?;
//!
//! let mut emu = Emulator::new();
//! emu.load(&prog);
//! let exit = emu.run(1_000_000)?;
//! assert_eq!(exit, 42);
//! # Ok(())
//! # }
//! ```

pub mod blockcache;
pub mod cpu;
pub mod exec;
pub mod f16;
pub mod gmem;
pub mod mmu;
pub mod platform;
pub mod pmp;
pub mod softfp;
pub mod trace;
pub mod vecexec;

pub use blockcache::CacheStats;
pub use cpu::{Cpu, PrivMode};
pub use exec::{ClusterCtl, Emulator, ExecError, StepOutcome, StepStatus, StoreRec};
pub use gmem::GuestMem;
pub use platform::{BusFault, IrqLines, Platform};
pub use trace::{DynInst, MemAccess, TraceEvent, TraceSource, TraceStatus};
