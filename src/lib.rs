//! Umbrella crate for the `xuantie910-sim` workspace.
//!
//! Re-exports the individual subsystem crates so that integration tests and
//! examples can use one import root. See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-reproduction index.

#![forbid(unsafe_code)]

pub use xt_asm as asm;
pub use xt_compiler as compiler;
pub use xt_core as core_model;
pub use xt_emu as emu;
pub use xt_isa as isa;
pub use xt_mem as mem;
pub use xt_perf as perf;
pub use xt_soc as soc;
pub use xt_uarch_model as uarch_model;
pub use xt_vector as vector;
pub use xt_workloads as workloads;
