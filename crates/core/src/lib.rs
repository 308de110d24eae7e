//! # xt-core — cycle-level timing models of the XT-910 core
//!
//! This crate is the paper's primary contribution rendered as a
//! simulator: the 12-stage (IF IP IB ID IR IS RF EX1-EX4 RT1-RT2),
//! triple-decode, 8-issue, out-of-order XT-910 pipeline, plus the
//! dual-issue in-order baseline used for the SiFive-U74-class comparison.
//!
//! ## Methodology
//!
//! The model is **trace-driven with structural replay** (DESIGN.md §3):
//! it consumes the committed instruction stream from
//! [`xt_emu::TraceSource`] and replays it against the full pipeline
//! structure — front-end predictors trained on the real outcomes,
//! fetch/decode/rename bandwidth, issue-queue and ROB occupancy,
//! execution-pipe contention, a dual-issue load/store unit with the
//! pseudo-double-store decomposition, store-to-load forwarding, memory
//! ordering violations with a memory-dependence predictor, and the
//! `xt-mem` cache/TLB/prefetch hierarchy. Control and memory
//! mis-speculation charge the structural redirect penalty (resolved at
//! the branch-jump unit, ≥7 cycles before the IP-stage alternative — §III-A).
//!
//! ## Models
//!
//! * [`ooo::OooCore`] — the XT-910 (also used, re-parameterized, as the
//!   Cortex-A73-class reference machine of Figs. 18/19),
//! * [`inorder::InOrderCore`] — a dual-issue in-order pipeline
//!   (U74-class baseline of Fig. 17).
//!
//! # Example
//!
//! ```
//! use xt_asm::Asm;
//! use xt_core::{CoreConfig, OooSession};
//! use xt_isa::reg::Gpr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(Gpr::A0, 1000);
//! let top = a.here();
//! a.addi(Gpr::A0, Gpr::A0, -1);
//! a.bnez(Gpr::A0, top);
//! a.halt();
//! let prog = a.finish()?;
//!
//! let report = OooSession::new(&prog, &CoreConfig::xt910(), 1_000_000).run_to_end();
//! assert!(report.perf.ipc() > 1.0, "tight loop should sustain >1 IPC");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod ifu;
pub mod inorder;
pub mod laws;
pub mod lsu;
pub mod ooo;
pub mod perf;
pub mod resources;
pub mod session;
mod shell;

pub use config::CoreConfig;
pub use inorder::InOrderCore;
pub use ooo::OooCore;
pub use perf::{PerfCounters, RunReport, StallCause, NUM_STALL_CAUSES};
pub use session::{InOrderSession, OooSession, Session};
pub use xt_trace::TraceBuffer;

use xt_asm::Program;
use xt_mem::MemConfig;

/// One-expression shim over [`OooSession`], which is the driver. It
/// stays only because `benchmark/src/ladder.rs` calls it and no PR but
/// a `[benchmark]` one may edit that directory (ROADMAP item 3 moves
/// the ladder onto `Session` and deletes this).
pub fn run_ooo_with_mem(
    prog: &Program,
    cfg: &CoreConfig,
    mem_cfg: MemConfig,
    max_insts: u64,
) -> RunReport {
    OooSession::with_mem(prog, cfg, mem_cfg, max_insts).run_to_end()
}
