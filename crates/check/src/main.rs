//! `xt-check` binary — the conformance smoke runner for CI.
//!
//! ```sh
//! xt-check [--cases N] [--seed S] [--self-test]
//! ```
//!
//! Runs every phase of [`xt_check::PHASES`] from suite seed `S`, each on
//! its share of `N` cases (both overridable via `XT_HARNESS_SEED` /
//! `XT_HARNESS_CASES`). With `--self-test`, additionally injects a
//! deliberate oracle fault and verifies the checker catches it with a
//! shrunk, seed-replayable counterexample. Exits non-zero on any
//! failure.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use xt_check::oracle::Fault;
use xt_check::progen::ProgGen;
use xt_check::{check_program, phase, PHASES, SUITE_SEED};
use xt_harness::prop::check_with;

fn parse_args() -> Result<(u32, u64, bool), String> {
    let mut cases = 64u32;
    let mut seed = SUITE_SEED;
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => {
                let v = args.next().ok_or("--cases needs a value")?;
                cases = v.parse().map_err(|_| format!("bad --cases {v:?}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).map_err(|_| format!("bad --seed {v:?}"))?
                } else {
                    v.parse().map_err(|_| format!("bad --seed {v:?}"))?
                };
            }
            "--self-test" => self_test = true,
            "--help" | "-h" => {
                println!("usage: xt-check [--cases N] [--seed S] [--self-test]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((cases, seed, self_test))
}

fn main() -> ExitCode {
    let (cases, seed, self_test) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xt-check: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Failures are reported through the caught panic payload; the
    // default hook's backtrace would only add noise to CI logs.
    std::panic::set_hook(Box::new(|_| {}));

    println!("xt-check: suite seed {seed:#x} (replay any failure with XT_HARNESS_SEED)");
    for p in &PHASES {
        let cfg = p.config(seed, p.cli_cases(cases));
        println!(
            "xt-check: {} {}, seed {:#x}",
            cfg.cases, p.cases_of, cfg.seed
        );
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (p.run)(&cfg, p.name))) {
            eprintln!("{}", panic_text(&payload));
            return ExitCode::FAILURE;
        }
        println!("xt-check: OK — {} {}: {}", cfg.cases, p.cases_of, p.holds);
    }

    if self_test {
        // The checker must catch a deliberately broken oracle and hand
        // back a shrunk, replayable counterexample.
        let fault_cfg = phase("programs").config(seed, cases);
        let gen = ProgGen::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check_with(&fault_cfg, "xt_check_self_test", &gen, |spec| {
                if let Err(e) = check_program(spec, Fault::DivuZeroGivesZero) {
                    panic!("{e}");
                }
            });
        }));
        let Err(payload) = caught else {
            eprintln!("xt-check: SELF-TEST FAILED — injected oracle fault went undetected");
            return ExitCode::FAILURE;
        };
        let msg = panic_text(&payload);
        if !(msg.contains("minimal input") && msg.contains("XT_HARNESS_SEED")) {
            eprintln!("xt-check: SELF-TEST FAILED — no shrunk counterexample:\n{msg}");
            return ExitCode::FAILURE;
        }
        println!(
            "xt-check: self-test OK — injected fault caught with a shrunk, \
             seed-replayable counterexample"
        );
    }
    ExitCode::SUCCESS
}

fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
