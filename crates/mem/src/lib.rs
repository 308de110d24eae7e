//! # xt-mem — the XT-910 memory-hierarchy timing model
//!
//! Implements every memory-side mechanism the paper describes:
//!
//! * per-core L1 instruction and data caches (32/64 KiB, paper Table I),
//! * a shared, **inclusive** L2 (256 KiB – 8 MiB, 8/16-way) with the
//!   **MOSEI** coherence protocol and a **snoop filter** (§VI),
//! * the **multi-mode multi-stream data prefetcher** (§V-C): a global
//!   any-stride mode (depth ≤ 64 lines) plus an 8-stream mode (depth ≤ 32),
//!   confidence-controlled, with virtual-address cross-page prefetch and
//!   optional TLB prefetch,
//! * **multi-size multi-level TLBs** (§V-D): fully-associative µTLB backed
//!   by a 4-way set-associative joint TLB holding 4 KiB / 2 MiB / 1 GiB
//!   entries probed in 4K → 2M → 1G order, with 16-bit ASIDs (§V-E),
//! * a hardware page-table walker that issues its accesses *through* the
//!   cache hierarchy (so PTE locality emerges naturally), and
//! * a fixed-latency, bandwidth-limited DRAM model (the Fig. 21 experiments
//!   set this to ~200 CPU cycles).
//!
//! The interface is latency-oracle style: the core model calls
//! [`MemSystem::dload`]/[`MemSystem::dstore`]/[`MemSystem::icache_fetch`]
//! with the current cycle and receives the cycle at which the access
//! completes; the hierarchy updates its internal state (cache contents,
//! stream tables, TLBs) as a side effect. Bandwidth limits are modeled by
//! per-channel `busy_until` serialization, which preserves memory-level
//! parallelism across outstanding misses.
//!
//! ## Observability
//!
//! Every modeled action is one [`MemEventKind`], and the statistics
//! ([`MemStats`]) are the fold of those events ([`MemStats::record`]) —
//! there is no second place a counter is kept. Two layers ride on that
//! without perturbing the model: the always-on **miss classifier**
//! ([`missclass`]) attributing every L1D miss to
//! compulsory/capacity/conflict/coherence with an exact conservation
//! law, and the opt-in **event tracer** ([`trace`]) collecting the
//! events, renderable as chrome://tracing JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod dram;
mod linemap;
pub mod missclass;
pub mod prefetch;
pub mod stats;
pub mod system;
pub mod tlb;
pub mod trace;

pub use cache::{Cache, LineState};
pub use config::{MemConfig, PrefetchConfig, PrefetchDistance};
pub use dram::Dram;
pub use missclass::{MissClass, MissClassifier};
pub use prefetch::Prefetcher;
pub use stats::{MemStats, StreamScore};
pub use system::{Front, MemOp, MemSystem};
pub use tlb::{Tlb, TlbResult};
pub use trace::{Level, MemEvent, MemEventKind, MemTracer};
