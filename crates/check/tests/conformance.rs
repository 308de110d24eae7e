//! The standing conformance suite: random programs must agree with the
//! host oracle on the emulator and satisfy the timing-model invariants;
//! an injected oracle fault must be caught and shrunk.
//!
//! Fixed suite seed: `xt_check::SUITE_SEED`. Replay a failure with
//! `XT_HARNESS_SEED=<seed> cargo test -p xt-check`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use xt_check::oracle::Fault;
use xt_check::progen::ProgGen;
use xt_check::{check_program, phase, SUITE_SEED};
use xt_harness::prop::{check_with, Config};

/// The programs phase's unit-test configuration.
fn cfg() -> Config {
    let p = phase("programs");
    p.config(SUITE_SEED, p.test_cases)
}

#[test]
fn random_programs_conform_and_satisfy_invariants() {
    phase("programs").test();
}

#[test]
fn injected_divu_fault_is_caught_and_shrunk() {
    // Break the oracle's divide-by-zero semantics: the conformance
    // property must fail, and the harness must hand back a *shrunk*,
    // seed-replayable counterexample.
    let err = catch_unwind(AssertUnwindSafe(|| {
        check_with(&cfg(), "faulty_divu_oracle", &ProgGen::default(), |spec| {
            if let Err(e) = check_program(spec, Fault::DivuZeroGivesZero) {
                panic!("{e}");
            }
        });
    }))
    .expect_err("a broken oracle must be detected within the suite budget");
    let msg = panic_payload_text(&err);
    assert!(
        msg.contains("minimal input"),
        "failure is shrunk to a minimal program: {msg}"
    );
    assert!(
        msg.contains("XT_HARNESS_SEED"),
        "failure prints the replay seed: {msg}"
    );
    assert!(
        msg.contains("divergence"),
        "artifact names the emulator/oracle divergence: {msg}"
    );
}

#[test]
fn injected_shift_fault_is_caught() {
    // Second fault class: unmasked shift amounts (the classic host-Rust
    // semantics mistake the differential suite also guards against).
    let err = catch_unwind(AssertUnwindSafe(|| {
        check_with(&cfg(), "faulty_shift_oracle", &ProgGen::default(), |spec| {
            if let Err(e) = check_program(spec, Fault::UnmaskedShift) {
                panic!("{e}");
            }
        });
    }))
    .expect_err("unmasked-shift oracle must be detected");
    let msg = panic_payload_text(&err);
    assert!(msg.contains("minimal input"), "shrunk: {msg}");
}

fn panic_payload_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
