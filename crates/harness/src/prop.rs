//! The property-test runner: draw N cases, and on the first failure
//! greedily shrink the input to a minimal counterexample, then panic
//! with the failing seed so the run is replayable.
//!
//! ## Replay workflow
//!
//! Every failure message prints the seed that produced it. Re-run just
//! that input with:
//!
//! ```sh
//! XT_HARNESS_SEED=<seed> cargo test -q failing_test_name
//! ```
//!
//! `XT_HARNESS_SEED` overrides the per-suite default seed; the runner
//! then executes the failing case first (case indices are derived from
//! the seed by stream-forking, so case `i` is reproducible in
//! isolation). `XT_HARNESS_CASES` overrides the case count.

use crate::gen::Gen;
use crate::rng::Rng;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default seed for every suite that doesn't pick its own. Arbitrary
/// but fixed: determinism is the point.
pub const DEFAULT_SEED: u64 = 0x5EED_0917_1204_0001;

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 256;

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of random cases to draw.
    pub cases: u32,
    /// Base seed; every case forks its own stream from it.
    pub seed: u64,
    /// Cap on property evaluations spent shrinking a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: env_u64("XT_HARNESS_CASES", CASES).map_or(DEFAULT_CASES, |v| v as u32),
            seed: env_u64("XT_HARNESS_SEED", 0..=u64::MAX).unwrap_or(DEFAULT_SEED),
            max_shrink_steps: 2000,
        }
    }
}

impl Config {
    /// Default config with a suite-specific base seed (still overridden
    /// by `XT_HARNESS_SEED`).
    pub fn seeded(seed: u64) -> Self {
        Config {
            seed: env_u64("XT_HARNESS_SEED", 0..=u64::MAX).unwrap_or(seed),
            ..Config::default()
        }
    }

    /// Same, with a custom case count (overridden by `XT_HARNESS_CASES`).
    pub fn seeded_cases(seed: u64, cases: u32) -> Self {
        Config {
            cases: env_u64("XT_HARNESS_CASES", CASES).map_or(cases, |v| v as u32),
            ..Config::seeded(seed)
        }
    }
}

/// What `XT_HARNESS_CASES` may be: zero cases would check nothing.
const CASES: RangeInclusive<u64> = 1..=u32::MAX as u64;

fn env_u64(var: &str, range: RangeInclusive<u64>) -> Option<u64> {
    std::env::var(var).ok().map(|s| parse(var, &s, range))
}

/// `s`, decimal or `0x`-hex, if it lies in `range`; anything else
/// panics naming `var`.
fn parse(var: &str, s: &str, range: RangeInclusive<u64>) -> u64 {
    let s = s.trim();
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    match parsed {
        Ok(v) if range.contains(&v) => v,
        _ => panic!("[xt-harness] could not parse {var}={s:?} as an integer in {range:?}"),
    }
}

/// Runs `prop` against `cases` random inputs with the default config.
/// Panics (with seed, case index, and a shrunk minimal input) on the
/// first failure.
pub fn check<G, P>(name: &str, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value),
{
    check_with(&Config::default(), name, gen, prop)
}

/// [`check`] with an explicit configuration.
pub fn check_with<G, P>(cfg: &Config, name: &str, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value),
{
    let root = Rng::new(cfg.seed);
    for case in 0..cfg.cases {
        let mut rng = root.fork(case as u64);
        let value = gen.generate(&mut rng);
        if let Err(msg) = run_one(&prop, &value) {
            let (minimal, min_msg, steps) = shrink_failure(cfg, gen, &prop, value, &msg);
            panic!(
                "\n[xt-harness] property '{name}' failed\n\
                 \x20 seed: {seed:#x} (replay: XT_HARNESS_SEED={seed:#x} cargo test {name})\n\
                 \x20 case: {case}/{cases}\n\
                 \x20 minimal input (after {steps} shrink steps): {minimal:?}\n\
                 \x20 failure: {min_msg}\n",
                seed = cfg.seed,
                cases = cfg.cases,
            );
        }
    }
}

/// Evaluates the property once, catching panics into an error message.
fn run_one<V, P: Fn(&V)>(prop: &P, value: &V) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_message(&payload)),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Greedy shrink: repeatedly move to the first candidate that still
/// fails, until no candidate fails or the step budget runs out.
fn shrink_failure<G, P>(
    cfg: &Config,
    gen: &G,
    prop: &P,
    first_failure: G::Value,
    first_msg: &str,
) -> (G::Value, String, u32)
where
    G: Gen,
    P: Fn(&G::Value),
{
    let mut cur = first_failure;
    let mut cur_msg = first_msg.to_string();
    let mut steps = 0u32;
    'outer: loop {
        for cand in gen.shrink(&cur) {
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(msg) = run_one(prop, &cand) {
                cur = cand;
                cur_msg = msg;
                continue 'outer;
            }
        }
        break; // no candidate still fails: local minimum
    }
    (cur, cur_msg, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{any, ints, vec_of};

    #[test]
    fn case_counts_are_positive_and_fit_u32() {
        let cases = |s: &str| {
            catch_unwind(|| parse("XT_HARNESS_CASES", s, CASES)).map_err(|e| panic_message(&e))
        };
        assert_eq!(cases("1"), Ok(1));
        assert_eq!(cases(" 0x40 "), Ok(64));
        assert_eq!(cases("4294967295"), Ok(u32::MAX.into()));
        for bad in ["0", "0x0", "4294967296", "0x100000000", "-1", "zz", ""] {
            let err = cases(bad).expect_err(bad);
            let want = "[xt-harness] could not parse XT_HARNESS_CASES=";
            assert!(err.starts_with(want), "{err}");
        }
        assert_eq!(parse("XT_HARNESS_SEED", "0", 0..=u64::MAX), 0);
    }

    #[test]
    fn passing_property_passes() {
        check("u64_is_u64", &any::<u64>(), |_v| {});
    }

    #[test]
    fn deterministic_across_runs() {
        // the same config must feed the property identical inputs
        let mut first: Vec<i64> = Vec::new();
        let cfg = Config::seeded_cases(77, 20);
        {
            let log = std::cell::RefCell::new(&mut first);
            check_with(&cfg, "collect", &any::<i64>(), |v| {
                log.borrow_mut().push(*v);
            });
        }
        let mut second: Vec<i64> = Vec::new();
        {
            let log = std::cell::RefCell::new(&mut second);
            check_with(&cfg, "collect", &any::<i64>(), |v| {
                log.borrow_mut().push(*v);
            });
        }
        assert_eq!(first, second);
    }

    #[test]
    fn failure_is_shrunk_to_minimum() {
        // property fails for v >= 100: minimal counterexample is 100
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_with(
                &Config::seeded(1),
                "ge_100",
                &ints(0i64..100_000),
                |&v| assert!(v < 100, "saw {v}"),
            );
        }))
        .expect_err("property must fail");
        let msg = panic_message(&err);
        assert!(msg.contains("minimal input"), "got: {msg}");
        assert!(msg.contains(": 100"), "shrunk to exactly 100, got: {msg}");
        assert!(msg.contains("XT_HARNESS_SEED="), "prints replay seed: {msg}");
    }

    #[test]
    fn vec_failure_shrinks_structurally() {
        // fails when the vec contains any element >= 5; minimal failing
        // input is a single-element vec [5]
        let err = catch_unwind(AssertUnwindSafe(|| {
            check_with(
                &Config::seeded_cases(2, 64),
                "vec_lt_5",
                &vec_of(ints(0u32..50), 1..30),
                |v| assert!(v.iter().all(|&x| x < 5), "bad vec {v:?}"),
            );
        }))
        .expect_err("property must fail");
        let msg = panic_message(&err);
        assert!(msg.contains("[5]"), "minimal vec is [5], got: {msg}");
    }
}
