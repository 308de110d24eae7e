//! # xt-vector — the XT-910 vector execution unit timing model (§VII)
//!
//! The XT-910's vector pipeline is built from identical **vector
//! slices**, each with a complete 64-bit datapath: a multi-port 64-bit
//! vector register file and *two* out-of-order execution pipelines. Each
//! pipeline computes one 64-bit (or two 32-bit) operations per cycle, so
//! the recommended two-slice configuration (`VLEN = SLEN = 128`)
//! produces up to **256 bits of results per cycle** while the LSU moves
//! 128 bits per cycle. Only widening/narrowing and permutation
//! operations exchange data across slices.
//!
//! This crate supplies the slice geometry ([`VectorConfig`]), the
//! per-operation latency table the paper quotes (most operations 3-4
//! cycles, FP multiply 5, divides 6-25 — [`mod@latency`]), the
//! occupancy model ([`occupancy`]), and the lane-slice crack/chaining
//! plan ([`VecPlan`], [`mod@chain`]) used by the `xt-core` pipeline.
//! `docs/VECTOR.md` describes how the pieces compose.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod latency;
pub mod slice;

pub use chain::{consumer_chains, producer_chains, source_ready, VecPlan, VregReady};
pub use latency::{latency, LatencyClass};
pub use slice::{crosses_slices, occupancy, result_bits_per_cycle, VectorConfig};
