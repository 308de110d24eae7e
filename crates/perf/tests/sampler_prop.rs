//! Property tests for the interval sampler: over random programs ×
//! random interval lengths, the time-series must conserve (interval
//! deltas sum exactly to the final counters, every interval's top-down
//! buckets sum to its cycles) on both timing models, and attaching the
//! sampler must not change timing at all.

use xt_check::progen::{ProgGen, ProgSpec};
use xt_core::{CoreConfig, InOrderSession, OooSession};
use xt_harness::{check_with, Config, Gen, Rng};
use xt_perf::run_sampled;

const MAX_INSTS: u64 = 200_000;

/// A random program spec paired with a random sampling interval.
#[derive(Clone, Debug)]
struct Case {
    spec: ProgSpec,
    interval: u64,
}

struct CaseGen {
    progs: ProgGen,
}

impl Gen for CaseGen {
    type Value = Case;

    fn generate(&self, rng: &mut Rng) -> Case {
        Case {
            spec: self.progs.generate(rng),
            // heavily skewed small so boundaries are crossed often;
            // occasionally longer than the whole run (single tail)
            interval: match rng.below(4) {
                0 => rng.gen_range_u64(1, 16),
                1 => rng.gen_range_u64(16, 256),
                2 => rng.gen_range_u64(256, 2048),
                _ => rng.gen_range_u64(2048, 1 << 20),
            },
        }
    }

    fn shrink(&self, value: &Case) -> Vec<Self::Value> {
        let mut out: Vec<Case> = self
            .progs
            .shrink(&value.spec)
            .into_iter()
            .map(|spec| Case {
                spec,
                interval: value.interval,
            })
            .collect();
        if value.interval > 1 {
            out.push(Case {
                spec: value.spec.clone(),
                interval: value.interval / 2,
            });
        }
        out
    }
}

#[test]
fn sampling_conserves_and_is_read_only_on_both_cores() {
    let gen = CaseGen {
        progs: ProgGen::default(),
    };
    check_with(
        &Config::seeded_cases(0x5a71e5, 120),
        "sampling_conserves_and_is_read_only_on_both_cores",
        &gen,
        |case| {
            let (prog, _expect) = case.spec.emit();
            let xt910 = CoreConfig::xt910();
            let u74 = CoreConfig::u74_like();

            let (report, series) =
                run_sampled(&mut OooSession::new(&prog, &xt910, MAX_INSTS), case.interval);
            series
                .conserves(&report.perf, &report.mem, 0)
                .unwrap_or_else(|e| panic!("ooo interval {}: {e}", case.interval));
            let plain = OooSession::new(&prog, &xt910, MAX_INSTS).run_to_end();
            assert_eq!(report.perf, plain.perf, "ooo: sampling changed timing");
            assert_eq!(report.mem, plain.mem, "ooo: sampling changed memory stats");

            let (report, series) =
                run_sampled(&mut InOrderSession::new(&prog, &u74, MAX_INSTS), case.interval);
            series
                .conserves(&report.perf, &report.mem, 0)
                .unwrap_or_else(|e| panic!("inorder interval {}: {e}", case.interval));
            let plain = InOrderSession::new(&prog, &u74, MAX_INSTS).run_to_end();
            assert_eq!(report.perf, plain.perf, "inorder: sampling changed timing");
            assert_eq!(report.mem, plain.mem, "inorder: sampling changed memory stats");
        },
    );
}

#[test]
fn interval_one_is_the_stress_case() {
    // interval == 1 forces an emit opportunity at every cycle boundary;
    // the series must still telescope exactly.
    let gen = CaseGen {
        progs: ProgGen { max_ops: 8 },
    };
    check_with(
        &Config::seeded_cases(0x1111, 20),
        "interval_one_is_the_stress_case",
        &gen,
        |case| {
            let (prog, _expect) = case.spec.emit();
            let cfg = CoreConfig::xt910();
            let (report, series) = run_sampled(&mut OooSession::new(&prog, &cfg, MAX_INSTS), 1);
            series
                .conserves(&report.perf, &report.mem, 0)
                .expect("interval-1 conservation");
        },
    );
}
