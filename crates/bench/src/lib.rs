//! # xt-bench — the experiment harness
//!
//! One function per table/figure of the paper (see DESIGN.md §4 for the
//! index). Each returns a structured result whose `Display` prints the
//! same rows/series the paper reports, side by side with the paper's
//! numbers. Absolute values are not expected to match (the substrate is
//! a simulator, not the authors' testbed); the *shape* — who wins, by
//! roughly what factor — is the reproduction target (EXPERIMENTS.md
//! records both).

pub mod ablations;
pub mod artifact;
pub mod figures;
pub mod multicore;
pub mod report;

pub use figures::*;

use xt_core::session::CoreModel;
use xt_core::{CoreConfig, InOrderCore, OooCore, RunReport, Session};
use xt_mem::MemConfig;
use xt_workloads::Kernel;

/// Calibration constant mapping simulated work/cycle onto the
/// CoreMark/MHz scale, chosen once so the XT-910 configuration lands
/// near the published 7.1 (documented in EXPERIMENTS.md; the *ratio*
/// between machines is calibration-free).
pub const COREMARK_SCALE: f64 = 100.0;

/// Runs `kernel` on the XT-910 out-of-order model.
pub fn run_on_xt910(kernel: &Kernel) -> RunReport {
    run_on_xt910_mem(kernel, CoreConfig::xt910().mem)
}

/// Runs `kernel` on the A73-class reference machine.
pub fn run_on_a73like(kernel: &Kernel) -> RunReport {
    let cfg = CoreConfig::a73_like();
    run_checked::<OooCore>(kernel, &cfg, cfg.mem)
}

/// Runs `kernel` on the U74-class in-order baseline.
pub fn run_on_u74like(kernel: &Kernel) -> RunReport {
    let cfg = CoreConfig::u74_like();
    run_checked::<InOrderCore>(kernel, &cfg, cfg.mem)
}

/// Runs `kernel` on XT-910 with an explicit memory configuration.
pub fn run_on_xt910_mem(kernel: &Kernel, mem: MemConfig) -> RunReport {
    run_checked::<OooCore>(kernel, &CoreConfig::xt910(), mem)
}

/// Runs `kernel` on core model `C` and holds the run to the kernel's
/// self-check.
fn run_checked<C: CoreModel>(kernel: &Kernel, cfg: &CoreConfig, mem: MemConfig) -> RunReport {
    let r = Session::<C>::with_mem(&kernel.program, cfg, mem, 500_000_000).run_to_end();
    if let (Some(want), Some(got)) = (kernel.expected, r.exit_code) {
        assert_eq!(
            got, want,
            "{}: timing run produced a wrong result",
            kernel.name
        );
    }
    r
}

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn kernel_runs_are_checked() {
        let k = xt_workloads::coremark::crc(&xt_compiler::CompileOpts::optimized());
        let r = run_on_xt910(&k);
        assert!(r.perf.instructions > 0);
        assert_eq!(r.exit_code, k.expected);
    }
}
