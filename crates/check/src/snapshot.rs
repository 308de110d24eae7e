//! Snapshot/resume identity under constrained random workloads.
//!
//! A [`SnapSpec`] is a generated workload (one program per core, as in
//! the [`cluster`](crate::cluster) phase) plus a *cut point* selector.
//! [`check_snapshot_identity`] runs the workload twice:
//!
//! 1. **Reference** — straight through, no snapshot.
//! 2. **Resumed** — run to the cut point, [`save`], [`restore`] the
//!    frame into a *fresh* instance built from the same program and
//!    configuration, and continue to the end there.
//!
//! and enforces the resume-identity laws that must hold for *any*
//! workload and cut point:
//!
//! 1. **Continuation identity** — the resumed run retires the same
//!    instructions and reports bit-identical perf counters, memory
//!    statistics, and exit codes as the reference.
//! 2. **Round-trip stability** — `save ∘ restore ∘ save` is
//!    byte-identical, so a snapshot can be re-saved losslessly.
//! 3. **Thread independence** (multi-core) — a frame saved from a
//!    1-thread stepping run resumes identically under 2 host threads,
//!    extending the cluster determinism law across the snapshot
//!    boundary.
//!
//! Single-core specs exercise the instruction-granular
//! [`OooSession`] path; multi-core specs exercise the epoch-granular
//! [`ClusterSim`] path. Failures shrink through `xt-harness` (fewer
//! cores, earlier cuts, shorter programs) and replay from a printed
//! seed.
//!
//! [`save`]: OooSession::save
//! [`restore`]: OooSession::restore

use crate::cluster::{emit_cores, mem_cfg};
use crate::progen::{ProgGen, ProgSpec};
use crate::MAX_INSTS;
use xt_asm::Program;
use xt_core::{CoreConfig, OooSession};
use xt_harness::{Gen, Rng};
use xt_soc::ClusterSim;

/// A generated snapshot scenario: a workload plus a cut-point selector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapSpec {
    /// One program spec per core (1, 2, or 4).
    pub cores: Vec<ProgSpec>,
    /// Epoch length in simulated cycles (multi-core only).
    pub epoch: u64,
    /// Raw cut-point selector; mapped onto the run length modulo the
    /// retired-instruction count (single-core) or a small epoch budget
    /// (multi-core), so every value is a valid mid-run cut.
    pub cut: u64,
}

/// Generator for [`SnapSpec`]s.
#[derive(Clone, Debug, Default)]
pub struct SnapGen {
    prog: ProgGen,
}

impl Gen for SnapGen {
    type Value = SnapSpec;

    fn generate(&self, rng: &mut Rng) -> SnapSpec {
        let n = *rng.choose(&[1usize, 1, 2, 4]);
        let cores = (0..n).map(|_| self.prog.generate(rng)).collect();
        let epoch = rng.gen_range_u64(1, 8193);
        let cut = rng.gen_range_u64(0, u64::MAX);
        SnapSpec { cores, epoch, cut }
    }

    fn shrink(&self, value: &SnapSpec) -> Vec<SnapSpec> {
        let mut out = Vec::new();
        // fewer cores first: the biggest simplification
        if value.cores.len() > 1 {
            let half = value.cores.len() / 2;
            out.push(SnapSpec {
                cores: value.cores[..half].to_vec(),
                ..value.clone()
            });
            out.push(SnapSpec {
                cores: value.cores[half..].to_vec(),
                ..value.clone()
            });
        }
        // earlier cuts and shorter epochs
        if value.cut > 0 {
            for c in [0, value.cut / 2] {
                out.push(SnapSpec {
                    cut: c,
                    ..value.clone()
                });
            }
        }
        if value.epoch > 1 {
            out.push(SnapSpec {
                epoch: value.epoch / 2,
                ..value.clone()
            });
        }
        // member-wise program shrinking
        for i in 0..value.cores.len() {
            for cand in self.prog.shrink(&value.cores[i]) {
                let mut cores = value.cores.clone();
                cores[i] = cand;
                out.push(SnapSpec {
                    cores,
                    ..value.clone()
                });
            }
        }
        out
    }
}

/// Single-core path: instruction-granular cut through [`OooSession`].
fn check_session(prog: &Program, cut: u64) -> Result<(), String> {
    let cfg = CoreConfig::xt910();
    let mut whole = OooSession::new(prog, &cfg, MAX_INSTS);
    let reference = whole.run_to_end();
    let retired = whole.retired().max(1);
    let point = cut % retired;

    let mut first = OooSession::new(prog, &cfg, MAX_INSTS);
    first.run_insts(point);
    let snap = first.save();

    let mut resumed = OooSession::new(prog, &cfg, MAX_INSTS);
    resumed
        .restore(&snap)
        .map_err(|e| format!("restore at inst {point}/{retired} failed: {e}"))?;

    // round-trip stability before continuing
    let resaved = resumed.save();
    if resaved != snap {
        return Err(format!(
            "save∘restore∘save not byte-identical at inst {point}/{retired}: \
             {} vs {} bytes",
            resaved.len(),
            snap.len()
        ));
    }

    let report = resumed.run_to_end();
    if report.perf != reference.perf {
        return Err(format!(
            "resumed perf counters diverge (cut at inst {point}/{retired}):\n\
             reference: {:?}\nresumed:   {:?}",
            reference.perf, report.perf
        ));
    }
    if report.mem != reference.mem {
        return Err(format!(
            "resumed memory stats diverge (cut at inst {point}/{retired})"
        ));
    }
    if report.exit_code != reference.exit_code {
        return Err(format!(
            "resumed exit code {:?} != reference {:?} (cut at inst {point})",
            report.exit_code, reference.exit_code
        ));
    }
    Ok(())
}

/// Multi-core path: epoch-granular cut through [`ClusterSim`].
fn check_cluster(progs: &[Program], epoch: u64, cut: u64) -> Result<(), String> {
    let cfg = CoreConfig::xt910();
    let build = || ClusterSim::new(progs, &cfg, mem_cfg(progs.len()), MAX_INSTS).with_epoch(epoch);

    let reference = build().run_threads(1);

    // Step a bounded number of epochs, then cut. A finished run is a
    // valid (end-state) cut too.
    let mut first = build();
    let budget = cut % 8 + 1;
    first.step_epochs(budget, 1);
    let at_epoch = first.epochs();
    let snap = first.save();

    let mut resumed = build();
    resumed
        .restore(&snap)
        .map_err(|e| format!("cluster restore at epoch {at_epoch} failed: {e}"))?;

    let resaved = resumed.save();
    if resaved != snap {
        return Err(format!(
            "cluster save∘restore∘save not byte-identical at epoch {at_epoch}: \
             {} vs {} bytes",
            resaved.len(),
            snap.len()
        ));
    }

    // Continue the resumed instance under 2 host threads: the thread
    // determinism law must extend across the snapshot boundary.
    while !resumed.step_epochs(1, 2) {}
    let report = resumed.into_report();

    if report.cores != reference.cores
        || report.mem != reference.mem
        || report.exit_codes != reference.exit_codes
    {
        return Err(format!(
            "resumed cluster run diverges from reference \
             (cut at epoch {at_epoch}, epoch length {epoch}, {} cores)",
            progs.len()
        ));
    }
    Ok(())
}

/// Checks the snapshot/resume identity laws for one generated spec.
/// The `Err` carries a human-readable description of the violated law.
pub fn check_snapshot_identity(spec: &SnapSpec) -> Result<(), String> {
    let progs = emit_cores(&spec.cores);
    if progs.len() == 1 {
        check_session(&progs[0], spec.cut)
    } else {
        check_cluster(&progs, spec.epoch, spec.cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_snapshots_resume_identically() {
        crate::phase("snapshot").test();
    }

    #[test]
    fn shrinking_reduces_cores_and_cut() {
        let gen = SnapGen::default();
        let mut rng = Rng::new(11);
        // draw until we get a multi-core spec so core shrinking applies
        let spec = loop {
            let s = gen.generate(&mut rng);
            if s.cores.len() > 1 {
                break s;
            }
        };
        let shrunk = gen.shrink(&spec);
        assert!(!shrunk.is_empty());
        assert!(shrunk.iter().any(|s| s.cores.len() < spec.cores.len()));
        if spec.cut > 0 {
            assert!(shrunk.iter().any(|s| s.cut < spec.cut));
        }
    }
}
