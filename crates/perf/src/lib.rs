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
//! * [`stat`] — the `xt-stat` binary: a Markdown dashboard with
//!   sparkline time-series, the `BENCH_perf.json` artifact (schema
//!   `xt-stat/v1`), and the `diff` / `selftest` subcommands CI uses as
//!   a benchmark regression gate,
//! * [`json`] — the hermetic JSON reader backing `diff`.
//!
//! See `docs/OBSERVABILITY.md` for the design notes and the schema.

#![warn(missing_docs)]

pub mod json;
pub mod sampler;
pub mod stat;
pub mod topdown;

pub use sampler::{IntervalSample, MemDelta, PerfDelta, Sampler, TimeSeries};
pub use topdown::TopDown;

use xt_asm::Program;
use xt_core::{CoreConfig, InOrderCore, OooCore, RunReport};
use xt_emu::{Emulator, TraceSource, TraceStatus};
use xt_mem::{MemConfig, MemSystem};

/// Runs `prog` on the out-of-order model with a [`Sampler`] attached,
/// returning the final report plus the interval time-series. Sampling
/// is read-only: the report is identical to [`xt_core::run_ooo_with_mem`]'s.
pub fn run_ooo_sampled(
    prog: &Program,
    cfg: &CoreConfig,
    mem_cfg: MemConfig,
    max_insts: u64,
    interval: u64,
) -> (RunReport, TimeSeries) {
    let mut emu = Emulator::new();
    emu.load(prog);
    let mut trace = TraceSource::new(emu, max_insts);
    let mut mem = MemSystem::new(mem_cfg);
    let mut core = OooCore::new(cfg.clone(), 0);
    let mut sampler = Sampler::new(0, interval);
    while trace.advance() == TraceStatus::Inst {
        core.step(trace.current(), &mut mem);
        if sampler.due(core.cycles()) {
            sampler.observe(core.cycles(), core.perf(), &mem.stats());
        }
    }
    let report = core.finish_report(&mem, trace.exit_code);
    let series = sampler.finish(report.perf.cycles, &report.perf, &report.mem);
    (report, series)
}

/// Runs `prog` on the in-order baseline with a [`Sampler`] attached
/// (see [`run_ooo_sampled`]).
pub fn run_inorder_sampled(
    prog: &Program,
    cfg: &CoreConfig,
    mem_cfg: MemConfig,
    max_insts: u64,
    interval: u64,
) -> (RunReport, TimeSeries) {
    let mut emu = Emulator::new();
    emu.load(prog);
    let mut trace = TraceSource::new(emu, max_insts);
    let mut mem = MemSystem::new(mem_cfg);
    let mut core = InOrderCore::new(cfg.clone(), 0);
    let mut sampler = Sampler::new(0, interval);
    while trace.advance() == TraceStatus::Inst {
        core.step(trace.current(), &mut mem);
        if sampler.due(core.cycles()) {
            sampler.observe(core.cycles(), core.perf(), &mem.stats());
        }
    }
    let report = core.finish_report(&mem, trace.exit_code);
    let series = sampler.finish(report.perf.cycles, &report.perf, &report.mem);
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_asm::Asm;
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

    #[test]
    fn sampled_run_conserves_and_matches_plain_run() {
        let prog = loop_prog(500);
        let cfg = CoreConfig::xt910();
        let (report, series) =
            run_ooo_sampled(&prog, &cfg, cfg.mem, 1_000_000, 64);
        series
            .conserves(&report.perf, &report.mem, 0)
            .expect("conservation");
        let plain = xt_core::run_ooo(&prog, &cfg, 1_000_000);
        assert_eq!(report.perf, plain.perf, "sampling is read-only");
        assert_eq!(report.mem, plain.mem);
        assert!(series.samples.len() > 1, "run spans several intervals");
    }

    #[test]
    fn inorder_sampled_run_conserves() {
        let prog = loop_prog(300);
        let cfg = CoreConfig::u74_like();
        let (report, series) =
            run_inorder_sampled(&prog, &cfg, cfg.mem, 1_000_000, 32);
        series
            .conserves(&report.perf, &report.mem, 0)
            .expect("conservation");
        let plain = xt_core::run_inorder(&prog, &cfg, 1_000_000);
        assert_eq!(report.perf, plain.perf);
    }
}
