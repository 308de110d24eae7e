//! Cluster-engine invariants under constrained random multi-core
//! workloads.
//!
//! A [`ClusterSpec`] is a small set of generated single-core programs
//! (one per core, each placed in a disjoint text/data region) plus an
//! epoch length. [`check_cluster_invariants`] runs the spec through the
//! epoch-barriered engine and enforces structural laws that must hold
//! for *any* program mix:
//!
//! 1. **Determinism** — 1-thread and 2-thread runs produce identical
//!    perf counters, memory statistics, and exit codes. The 2-thread
//!    leg additionally runs with the memory tracer attached, so this
//!    law also proves tracing changes nothing
//!    (`tracing_does_not_change_timing`).
//! 2. **Makespan bound** — sharing a hierarchy can only slow a core
//!    down, so the cluster makespan (plus bounded slack for the handful
//!    of unavoidably shared lines: the root page-table line and the
//!    halt mailbox) is at least the slowest core's standalone runtime.
//! 3. **Memory laws** — the master hierarchy keeps every memory row of
//!    [`xt_core::laws::LAWS`] ([`xt_core::laws::check_mem`];
//!    docs/OBSERVABILITY.md, "Conservation laws").
//! 4. **Completion** — every generated program halts with an exit code.
//! 5. **Event reconciliation** — the traced leg's replayed event counts
//!    reconcile exactly with every memory counter
//!    ([`xt_mem::MemTracer::reconcile`]).
//!
//! Failures shrink through `xt-harness` (fewer cores, shorter
//! programs, smaller epochs) and replay from a printed seed.

use crate::progen::{ProgGen, ProgSpec};
use crate::MAX_INSTS;
use xt_asm::Program;
use xt_core::CoreConfig;
use xt_harness::{Gen, Rng};
use xt_mem::MemConfig;
use xt_soc::{ClusterReport, ClusterSim};

/// Per-core placement stride: images 16 MiB apart keep every generated
/// working set (a few hundred bytes) in a private region.
const TEXT_BASE: u64 = 0x8000_0000;
const DATA_BASE: u64 = 0x8800_0000;
const CORE_STRIDE: u64 = 0x0100_0000;

/// One program per core, each in its own region (this phase's and the
/// snapshot phase's placement).
pub(crate) fn emit_cores(cores: &[ProgSpec]) -> Vec<Program> {
    cores
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let at = i as u64 * CORE_STRIDE;
            spec.emit_at(TEXT_BASE + at, DATA_BASE + at).0
        })
        .collect()
}

/// The default hierarchy for `cores` cores.
pub(crate) fn mem_cfg(cores: usize) -> MemConfig {
    MemConfig {
        cores,
        ..MemConfig::default()
    }
}

/// A generated multi-core workload: one program per core plus the
/// engine's epoch length.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClusterSpec {
    /// One program spec per core (1, 2, or 4 — the configurations the
    /// memory system accepts).
    pub cores: Vec<ProgSpec>,
    /// Epoch length in simulated cycles.
    pub epoch: u64,
}

/// Generator for [`ClusterSpec`]s.
#[derive(Clone, Debug, Default)]
pub struct ClusterGen {
    prog: ProgGen,
}

impl Gen for ClusterGen {
    type Value = ClusterSpec;

    fn generate(&self, rng: &mut Rng) -> ClusterSpec {
        let n = *rng.choose(&[2usize, 4]);
        let cores = (0..n).map(|_| self.prog.generate(rng)).collect();
        let epoch = rng.gen_range_u64(1, 8193);
        ClusterSpec { cores, epoch }
    }

    fn shrink(&self, value: &ClusterSpec) -> Vec<ClusterSpec> {
        let mut out = Vec::new();
        // fewer cores first (4 -> 2 -> 1): the biggest simplification
        if value.cores.len() > 1 {
            let half = value.cores.len() / 2;
            out.push(ClusterSpec {
                cores: value.cores[..half].to_vec(),
                epoch: value.epoch,
            });
            out.push(ClusterSpec {
                cores: value.cores[half..].to_vec(),
                epoch: value.epoch,
            });
        }
        // shorter epochs
        if value.epoch > 1 {
            for e in [1, value.epoch / 2] {
                out.push(ClusterSpec {
                    cores: value.cores.clone(),
                    epoch: e,
                });
            }
        }
        // member-wise program shrinking
        for i in 0..value.cores.len() {
            for cand in self.prog.shrink(&value.cores[i]) {
                let mut cores = value.cores.clone();
                cores[i] = cand;
                out.push(ClusterSpec {
                    cores,
                    epoch: value.epoch,
                });
            }
        }
        out
    }
}

fn run(progs: &[Program], epoch: u64, threads: usize, traced: bool) -> ClusterReport {
    let mut sim = ClusterSim::new(progs, &CoreConfig::xt910(), mem_cfg(progs.len()), MAX_INSTS)
        .with_epoch(epoch);
    if traced {
        sim = sim.with_mem_tracing();
    }
    sim.run_threads(threads)
}

/// Checks the cluster invariants for one generated spec. The `Err`
/// carries a human-readable description of the violated law.
pub fn check_cluster_invariants(spec: &ClusterSpec) -> Result<(), String> {
    let progs = emit_cores(&spec.cores);
    let r1 = run(&progs, spec.epoch, 1, false);

    // 1. determinism across host thread counts; the traced leg must
    // produce the same counters, so this also proves observability is
    // strictly read-only
    let r2 = run(&progs, spec.epoch, 2, true);
    if r1.cores != r2.cores || r1.mem != r2.mem || r1.exit_codes != r2.exit_codes {
        return Err(format!(
            "thread-count nondeterminism (or tracing changed results): \
             untraced 1-thread and traced 2-thread runs diverge \
             (epoch {}, {} cores)",
            spec.epoch,
            progs.len()
        ));
    }

    // 5. the traced leg's event stream reconciles with the counters
    let tracer = r2.mem_events.as_ref().ok_or("traced run returned no event stream")?;
    tracer
        .reconcile(&r2.mem)
        .map_err(|e| format!("cluster event stream does not reconcile with counters: {e}"))?;

    // 4. every program halts
    for (i, code) in r1.exit_codes.iter().enumerate() {
        if code.is_none() {
            return Err(format!("core {i} did not halt"));
        }
    }

    // 2. makespan bound: contention only slows cores down. The root
    // page-table line and the halt mailbox are shared by construction,
    // so allow a few DRAM round trips of slack for cross-core
    // interference on exactly those lines.
    let slack = 4 * mem_cfg(progs.len()).dram_latency;
    let standalone_max = progs
        .iter()
        .map(|p| {
            let solo = ClusterSim::new(
                std::slice::from_ref(p),
                &CoreConfig::xt910(),
                mem_cfg(1),
                MAX_INSTS,
            )
            .run_threads(1);
            solo.makespan()
        })
        .max()
        .unwrap_or(0);
    if r1.makespan() + slack < standalone_max {
        return Err(format!(
            "makespan {} + slack {} below slowest standalone core {} — \
             the cluster simulated a core faster than it runs alone",
            r1.makespan(),
            slack,
            standalone_max
        ));
    }

    // 3. the memory laws on the master hierarchy
    xt_core::laws::check_mem(&r1.mem)?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_clusters_satisfy_invariants() {
        crate::phase("cluster").test();
    }

    #[test]
    fn shrinking_reduces_core_count_and_epoch() {
        let gen = ClusterGen::default();
        let mut rng = Rng::new(7);
        let spec = gen.generate(&mut rng);
        let shrunk = gen.shrink(&spec);
        assert!(!shrunk.is_empty());
        assert!(
            shrunk.iter().any(|s| s.cores.len() < spec.cores.len()),
            "offers fewer-core candidates"
        );
        if spec.epoch > 1 {
            assert!(shrunk.iter().any(|s| s.epoch < spec.epoch));
        }
    }
}
