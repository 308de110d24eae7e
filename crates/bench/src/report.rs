//! The observability matrix lives in [`xt_perf::stat`] (the `xt-stat`
//! binary). This re-export has one caller, `benchmark/`, which reaches
//! the matrix under this path; it goes when that caller moves to
//! `xt_perf::stat` (ROADMAP item 2).

pub use xt_perf::stat::{branchy, depchain, run_all};
