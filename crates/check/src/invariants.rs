//! Structural invariants of the timing models.
//!
//! Every generated program's committed trace is replayed through both
//! the out-of-order and the in-order core, checking properties that
//! must hold for *any* program if the bookkeeping is sound:
//!
//! 1. retirement follows program order (the OoO retire cycle is
//!    monotone across the committed trace),
//! 2. the `stall_budget` law,
//! 3. `IPC ≤ issue width` (and the tighter retire-width bound),
//! 4. on dependency-free straight-line code the in-order baseline is
//!    never faster than the out-of-order core,
//! 5. telemetry conservation — an [`xt_perf::Sampler`] riding along the
//!    OoO replay must produce interval deltas that sum exactly to the
//!    final counters, every interval keeping the `topdown` law,
//! 6. memory observability — the OoO replay runs with the
//!    [`xt_mem::MemTracer`] attached; afterwards the replayed event
//!    counts must reconcile exactly with every [`xt_mem::MemStats`]
//!    counter, and both models' hierarchies keep the memory laws
//!    ([`xt_core::laws::check_mem`]).
//!
//! The laws are rows of [`xt_core::laws::LAWS`] (docs/OBSERVABILITY.md,
//! "Conservation laws").

use crate::progen::ProgSpec;
use crate::MAX_INSTS;
use xt_core::{laws, CoreConfig, InOrderSession, OooSession};
use xt_perf::Sampler;

/// Sampling interval for the telemetry-conservation check: short, so
/// even tiny generated programs cross several boundaries.
const SAMPLE_INTERVAL: u64 = 64;

/// Per-stage timing summary for the replay artifact.
#[derive(Clone, Debug)]
pub struct TimingSummary {
    /// Out-of-order cycles.
    pub ooo_cycles: u64,
    /// In-order cycles.
    pub inorder_cycles: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// Attributed ROB-full stall cycles (OoO).
    pub rob_stall_cycles: u64,
    /// Attributed IQ-full stall cycles (OoO).
    pub iq_stall_cycles: u64,
}

impl TimingSummary {
    /// Human-readable block for failure artifacts.
    pub fn render(&self) -> String {
        format!(
            "  insts: {}\n  ooo: {} cycles (IPC {:.3}, rob-stall {}, iq-stall {})\n  inorder: {} cycles (IPC {:.3})",
            self.instructions,
            self.ooo_cycles,
            self.instructions as f64 / self.ooo_cycles.max(1) as f64,
            self.rob_stall_cycles,
            self.iq_stall_cycles,
            self.inorder_cycles,
            self.instructions as f64 / self.inorder_cycles.max(1) as f64,
        )
    }
}

/// Replays `spec` through both timing models and checks the structural
/// invariants. Returns the timing summary on success and a description
/// of the first violation on failure.
pub fn check_invariants(spec: &ProgSpec) -> Result<TimingSummary, String> {
    let cfg = CoreConfig::xt910();
    let (prog, _) = spec.emit();

    // ---- OoO model, stepped incrementally for the ordering check ----
    let mut ooo = OooSession::new(&prog, &cfg, MAX_INSTS);
    ooo.mem_mut().start_tracing();
    let mut sampler = Sampler::new(0, SAMPLE_INTERVAL);
    let mut last_retire = 0u64;
    let mut insts = 0u64;
    while ooo.step() {
        if sampler.due(ooo.cycles()) {
            sampler.observe(ooo.cycles(), ooo.core().perf(), &ooo.mem().stats());
        }
        let r = ooo.core().last_retire_cycle();
        if r < last_retire {
            return Err(format!(
                "retirement violates program order: inst {insts} (pc {:#x}) \
                 retired at cycle {r}, an older instruction at {last_retire}",
                ooo.trace().current().pc
            ));
        }
        last_retire = r;
        insts += 1;
    }
    let report = ooo.finish_report();
    let cycles = report.perf.cycles;
    let perf = &report.perf;

    let series = sampler.finish(cycles, perf, &report.mem);
    if let Err(e) = series.conserves(perf, &report.mem, 0) {
        return Err(format!(
            "telemetry conservation violated (interval {SAMPLE_INTERVAL}): {e}"
        ));
    }

    laws::check_mem(&report.mem)?;
    let tracer = ooo.mem_mut().stop_tracing().expect("tracing was started");
    tracer
        .reconcile(&report.mem)
        .map_err(|e| format!("memory event stream does not reconcile with counters: {e}"))?;

    laws::check(perf, &[laws::STALL_BUDGET])
        .map_err(|e| format!("{e}\n{}", report.stall_breakdown()))?;
    // `+ 1`: cycle counting is zero-based, a 1-cycle program reports 0..=1.
    if insts > (cycles + 1) * cfg.issue_width {
        return Err(format!(
            "IPC exceeds issue width: {insts} insts in {cycles} cycles (width {})",
            cfg.issue_width
        ));
    }
    if insts > (cycles + 1) * cfg.retire_width {
        return Err(format!(
            "IPC exceeds retire width: {insts} insts in {cycles} cycles (width {})",
            cfg.retire_width
        ));
    }

    // ---- in-order baseline ----
    let report = InOrderSession::new(&prog, &cfg, MAX_INSTS).run_to_end();
    let inorder_cycles = report.perf.cycles;
    // the classifier is always-on, so the conservation laws must hold
    // on the in-order core's hierarchy too
    laws::check_mem(&report.mem).map_err(|e| format!("in-order baseline: {e}"))?;

    // On dependency-free straight-line code the OoO core can extract all
    // ILP, so it must not be slower. A small slack absorbs modeling
    // differences in startup/drain cycles between the two pipelines.
    if spec.is_dependency_free() && cycles > inorder_cycles + 4 {
        return Err(format!(
            "out-of-order slower than in-order on dependency-free code: \
             {cycles} vs {inorder_cycles} cycles"
        ));
    }

    Ok(TimingSummary {
        ooo_cycles: cycles,
        inorder_cycles,
        instructions: insts,
        rob_stall_cycles: perf.rob_stall_cycles(),
        iq_stall_cycles: perf.iq_stall_cycles(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progen::{AluOp, ProgSpec, SpecOp};

    #[test]
    fn invariants_hold_on_simple_programs() {
        let spec = ProgSpec {
            ops: vec![
                SpecOp::Li { rd: 0, imm: 100 },
                SpecOp::Loop {
                    count: 8,
                    body: vec![
                        SpecOp::Alu { op: AluOp::Add, rd: 1, rs1: 1, rs2: 0 },
                        SpecOp::Store { rs: 1, slot: 0 },
                        SpecOp::Load { rd: 2, slot: 0 },
                    ],
                },
            ],
        };
        let summary = check_invariants(&spec).expect("invariants hold");
        assert!(summary.instructions > 0);
        assert!(summary.ooo_cycles > 0);
        assert!(summary.render().contains("insts"));
    }

    #[test]
    fn dependency_free_code_favors_ooo() {
        let spec = ProgSpec {
            ops: (0..6)
                .map(|i| SpecOp::Alu {
                    op: AluOp::Xor,
                    rd: i,
                    rs1: (i + 1) % 8,
                    rs2: (i + 2) % 8,
                })
                .collect(),
        };
        assert!(spec.is_dependency_free());
        check_invariants(&spec).expect("dependency-free program passes");
    }
}
