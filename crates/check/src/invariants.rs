//! Structural invariants of the timing models.
//!
//! Every generated program's committed trace is replayed through both
//! the out-of-order and the in-order core, checking properties that
//! must hold for *any* program if the bookkeeping is sound:
//!
//! 1. retirement follows program order (the OoO retire cycle is
//!    monotone across the committed trace),
//! 2. stall-cycle conservation — the per-cause attributed stall cycles
//!    (ROB/IQ/LSU-queue/cache-miss/flush) can never sum past total
//!    cycles,
//! 3. `IPC ≤ issue width` (and the tighter retire-width bound),
//! 4. on dependency-free straight-line code the in-order baseline is
//!    never faster than the out-of-order core,
//! 5. telemetry conservation — an [`xt_perf::Sampler`] riding along the
//!    OoO replay must produce interval deltas that sum exactly to the
//!    final counters, with every interval's top-down buckets summing
//!    (signed) to its cycle delta,
//! 6. memory-observability conservation — the OoO replay runs with the
//!    [`xt_mem::MemTracer`] attached; afterwards the replayed event
//!    counts must reconcile exactly with every [`xt_mem::MemStats`]
//!    counter, the four attributed miss classes must sum to the L1D
//!    miss total per core, each stream's late prefetches must not
//!    exceed its useful ones, and the snoop books must balance
//!    (the matrix sums to `snoops_sent`, sent + suppressed =
//!    candidates).

use crate::progen::ProgSpec;
use crate::MAX_INSTS;
use xt_core::{CoreConfig, InOrderSession, OooSession};
use xt_mem::MemStats;
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

/// Checks the memory-observability conservation laws on a final
/// [`MemStats`]: per-core miss-class conservation, per-slot scorecard
/// sanity (`late <= useful`), and the snoop books
/// (`snoop_matrix` sums to `snoops_sent`,
/// `snoops_sent + snoops_suppressed == probe_candidates`). Shared by
/// the single-core invariant replay and the cluster stage.
pub fn check_memory_observability(mem: &MemStats) -> Result<(), String> {
    for (c, &(_, misses)) in mem.l1d.iter().enumerate() {
        let classes = mem.miss_class_sum(c);
        if classes != misses {
            return Err(format!(
                "miss-class conservation violated on core {c}: \
                 compulsory {} + capacity {} + conflict {} + coherence {} = {classes}, \
                 but L1D misses = {misses}",
                mem.miss_compulsory[c],
                mem.miss_capacity[c],
                mem.miss_conflict[c],
                mem.miss_coherence[c],
            ));
        }
    }
    for (c, per_slot) in mem.pf_scorecard.iter().enumerate() {
        for (s, score) in per_slot.iter().enumerate() {
            if score.late > score.useful {
                return Err(format!(
                    "prefetch scorecard core {c} slot {s}: late {} > useful {}",
                    score.late, score.useful
                ));
            }
        }
    }
    let matrix_sum: u64 = mem.snoop_matrix.iter().sum();
    if matrix_sum != mem.snoops_sent {
        return Err(format!(
            "snoop matrix sums to {matrix_sum}, but snoops_sent = {}",
            mem.snoops_sent
        ));
    }
    if mem.snoops_sent + mem.snoops_suppressed != mem.probe_candidates {
        return Err(format!(
            "snoop books unbalanced: sent {} + suppressed {} != candidates {}",
            mem.snoops_sent, mem.snoops_suppressed, mem.probe_candidates
        ));
    }
    Ok(())
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

    check_memory_observability(&report.mem)?;
    let tracer = ooo.mem_mut().stop_tracing().expect("tracing was started");
    tracer
        .reconcile(&report.mem)
        .map_err(|e| format!("memory event stream does not reconcile with counters: {e}"))?;

    if perf.attributed_stall_cycles() > cycles {
        return Err(format!(
            "stall conservation violated: attributed {} > {} cycles\n{}",
            perf.attributed_stall_cycles(),
            cycles,
            xt_core::perf::StallCause::ALL
                .iter()
                .map(|&c| format!("    {}: {}", c.name(), perf.stall(c)))
                .collect::<Vec<_>>()
                .join("\n"),
        ));
    }
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
    check_memory_observability(&report.mem)
        .map_err(|e| format!("in-order baseline: {e}"))?;

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
