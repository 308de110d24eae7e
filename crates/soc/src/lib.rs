//! # xt-soc — multi-core cluster and SoC assembly (§II, §VI)
//!
//! The XT-910 groups up to 4 cores into a cluster sharing an inclusive
//! MOSEI L2 with a snoop filter; up to 4 clusters connect through the
//! Ncore coherent interconnect (Fig. 13). The SoC also carries the
//! standard CLINT (software/timer interrupts) and PLIC (external
//! interrupts) blocks.
//!
//! This crate provides:
//!
//! * [`ClusterSim`] — the deterministic epoch-barriered parallel
//!   engine: 1-4 core timing models step concurrently (one host thread
//!   per core chunk) against private memory-hierarchy replicas, and a
//!   serial barrier arbitrates the recorded traffic through the shared
//!   master [`xt_mem::MemSystem`] in core-index order. Results are
//!   bit-identical for any `XT_THREADS` value (docs/CLUSTER.md);
//! * [`MmioBus`] — the synchronous, strongly-ordered device bus
//!   implementing [`xt_emu::Platform`]: address-window routing to the
//!   devices below plus denied-access diagnostics (docs/INTERRUPTS.md);
//! * [`Clint`] and [`Plic`] — functional models of the interrupt
//!   controllers with their standard register maps, exposed both as
//!   direct method APIs and as width-checked MMIO devices;
//! * [`Uart`] — a TX-only console UART;
//! * [`SocConfig`] — the Table I configuration space.
//!
//! Functional note: each core executes its own program image (the
//! trace-driven methodology keeps architectural state per core); the
//! *timing* hierarchy — L2, snoop filter, DRAM channel — is shared, so
//! contention and coherence traffic are modeled cluster-wide. The
//! multi-cluster (Ncore) level is represented by the [`SocConfig`]
//! configuration space; inter-cluster coherence timing is out of scope
//! (DESIGN.md).

#![forbid(unsafe_code)]

pub mod bus;
pub mod clint;
pub mod cluster;
pub mod config;
pub mod plic;
pub mod timeline;
pub mod uart;

pub use bus::{attach_bus, bus_of, bus_of_mut, DeniedAccess, MmioBus, MmioDevice};
pub use clint::Clint;
pub use cluster::{ClusterReport, ClusterSim, EngineStats, DEFAULT_EPOCH_CYCLES};
pub use config::SocConfig;
pub use plic::Plic;
pub use timeline::{EpochSample, EpochTimeline};
pub use uart::Uart;
