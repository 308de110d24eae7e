//! # xt-perf — telemetry for the XT-910 simulator
//!
//! The paper's evaluation is counter-driven (CoreMark/SPECInt IPC, the
//! STREAM prefetch ablation, TLB/cache sensitivity); this crate makes
//! those counters *observable over time* and *regression-protected*:
//!
//! * [`sampler`] — interval sampling of [`xt_core::PerfCounters`] +
//!   [`xt_mem::MemStats`] into a deterministic time-series of deltas,
//!   with an exact conservation law (interval deltas sum to the final
//!   counters),
//! * [`topdown`] — TMA-style top-down cycle accounting (frontend /
//!   bad-speculation / backend-core / backend-memory / retiring)
//!   derived from the frontier-based stall attribution,
//! * [`stat`] — the `xt-stat` binary, the one observability report: a
//!   Markdown dashboard with stall attribution and sparkline
//!   time-series, and the `BENCH_perf.json` artifact (schema
//!   `xt-stat/v3`),
//! * [`gate`] — the one schema-agnostic `diff` / `selftest` and their
//!   command line, which CI uses as the regression gate for every
//!   committed JSON baseline (`xt-stat`'s and `xt-figures`'),
//! * [`json`] — the hermetic, depth-bounded JSON reader backing it.
//!
//! See `docs/OBSERVABILITY.md` for the design notes and the schema.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gate;
pub mod json;
pub mod sampler;
pub mod stat;
pub mod topdown;

pub use sampler::{IntervalSample, MemDelta, PerfDelta, Sampler, TimeSeries};
pub use topdown::TopDown;

use xt_asm::Program;
use xt_core::session::CoreModel;
use xt_core::{CoreConfig, OooSession, RunReport, Session};
use xt_mem::MemConfig;

/// Runs `session` to the end with a [`Sampler`] attached, returning the
/// final report plus the interval time-series. Sampling is read-only:
/// the report is identical to [`Session::run_to_end`]'s.
pub fn run_sampled<C: CoreModel>(session: &mut Session<C>, interval: u64) -> (RunReport, TimeSeries) {
    let mut sampler = Sampler::new(0, interval);
    sample_insts(session, &mut sampler, u64::MAX);
    seal(session, sampler)
}

/// Steps `session` by at most `n` instructions with `sampler` watching;
/// returns how many retired (fewer than `n` only at the end of the
/// trace).
fn sample_insts<C: CoreModel>(session: &mut Session<C>, sampler: &mut Sampler, n: u64) -> u64 {
    let mut done = 0;
    while done < n && session.step() {
        done += 1;
        let cycle = session.cycles();
        if sampler.due(cycle) {
            sampler.observe(cycle, session.core().perf(), &session.mem().stats());
        }
    }
    done
}

/// Seals a sampled run into its final report and time-series.
fn seal<C: CoreModel>(session: &mut Session<C>, sampler: Sampler) -> (RunReport, TimeSeries) {
    let report = session.finish_report();
    let series = sampler.finish(report.perf.cycles, &report.perf, &report.mem);
    (report, series)
}

/// One-expression shim over [`run_sampled`]. It stays only because
/// `benchmark/src/ladder.rs` calls it and no PR but a `[benchmark]` one
/// may edit that directory (ROADMAP item 3 moves the ladder onto
/// `Session` and deletes this).
pub fn run_ooo_sampled(
    prog: &Program,
    cfg: &CoreConfig,
    mem_cfg: MemConfig,
    max_insts: u64,
    interval: u64,
) -> (RunReport, TimeSeries) {
    run_sampled(&mut OooSession::with_mem(prog, cfg, mem_cfg, max_insts), interval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
    use xt_core::{InOrderCore, OooCore};
    use xt_isa::reg::Gpr;

    fn loop_prog(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(Gpr::S0, iters);
        let top = a.here();
        a.addi(Gpr::A1, Gpr::A1, 1);
        a.addi(Gpr::S0, Gpr::S0, -1);
        a.bnez(Gpr::S0, top);
        a.halt();
        a.finish().unwrap()
    }

    /// Sampling conserves and is read-only, on either core.
    fn conserves_and_matches_plain_run<C: CoreModel>(cfg: &CoreConfig, iters: i64, interval: u64) {
        let prog = loop_prog(iters);
        let (report, series) =
            run_sampled(&mut Session::<C>::new(&prog, cfg, 1_000_000), interval);
        series
            .conserves(&report.perf, &report.mem, 0)
            .expect("conservation");
        let plain = Session::<C>::new(&prog, cfg, 1_000_000).run_to_end();
        assert_eq!(report.perf, plain.perf, "sampling is read-only");
        assert_eq!(report.mem, plain.mem);
        assert!(series.samples.len() > 1, "run spans several intervals");
    }

    #[test]
    fn sampled_run_conserves_and_matches_plain_run() {
        conserves_and_matches_plain_run::<OooCore>(&CoreConfig::xt910(), 500, 64);
    }

    #[test]
    fn inorder_sampled_run_conserves() {
        conserves_and_matches_plain_run::<InOrderCore>(&CoreConfig::u74_like(), 300, 32);
    }
}
