//! `xt-check` binary — the conformance smoke runner for CI.
//!
//! ```sh
//! xt-check [--cases N] [--seed S] [--self-test]
//! ```
//!
//! Generates `N` random programs from seed `S` (both overridable via
//! `XT_HARNESS_CASES` / `XT_HARNESS_SEED`), checking each for
//! emulator/oracle conformance and timing-model invariants. With
//! `--self-test`, additionally injects a deliberate oracle fault and
//! verifies the checker catches it with a shrunk, seed-replayable
//! counterexample. Exits non-zero on any failure.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use xt_check::cluster::{check_cluster_invariants, ClusterGen};
use xt_check::fastpath::{check_fastpath, FastGen};
use xt_check::interrupts::{check_interrupts, IrqGen};
use xt_check::oracle::Fault;
use xt_check::progen::ProgGen;
use xt_check::snapshot::{check_snapshot_identity, SnapGen};
use xt_check::vector::{check_vector, VecGen};
use xt_check::{check_program, SUITE_SEED};
use xt_harness::prop::{check_with, Config};

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

    let cfg = Config::seeded_cases(seed, cases);
    let gen = ProgGen::default();

    println!(
        "xt-check: {} programs, seed {:#x} (replay any failure with XT_HARNESS_SEED)",
        cfg.cases, cfg.seed
    );
    let checked = std::cell::Cell::new(0u32);
    let result = catch_unwind(AssertUnwindSafe(|| {
        check_with(&cfg, "xt_check_suite", &gen, |spec| {
            if let Err(e) = check_program(spec, Fault::None) {
                panic!("{e}");
            }
            checked.set(checked.get() + 1);
        });
    }));
    match result {
        Ok(()) => println!(
            "xt-check: OK — {} programs, zero divergences, zero invariant violations",
            checked.get()
        ),
        Err(payload) => {
            eprintln!("{}", panic_text(&payload));
            return ExitCode::FAILURE;
        }
    }

    // Cluster invariants: fewer cases (each spins up 3-5 whole-cluster
    // simulations) but the same shrink-and-replay discipline.
    let cluster_cases = (cases / 4).max(4);
    let cluster_cfg = Config::seeded_cases(seed ^ 0xC105_7E12, cluster_cases);
    println!(
        "xt-check: {} cluster workloads, seed {:#x}",
        cluster_cfg.cases, cluster_cfg.seed
    );
    let cluster_checked = std::cell::Cell::new(0u32);
    let cluster_result = catch_unwind(AssertUnwindSafe(|| {
        check_with(
            &cluster_cfg,
            "xt_check_cluster",
            &ClusterGen::default(),
            |spec| {
                if let Err(e) = check_cluster_invariants(spec) {
                    panic!("{e}");
                }
                cluster_checked.set(cluster_checked.get() + 1);
            },
        );
    }));
    match cluster_result {
        Ok(()) => println!(
            "xt-check: OK — {} cluster workloads, determinism + makespan + \
             snoop conservation hold",
            cluster_checked.get()
        ),
        Err(payload) => {
            eprintln!("{}", panic_text(&payload));
            return ExitCode::FAILURE;
        }
    }

    // Fast-path differential: decoded-block engine vs. per-step decode
    // on self-modifying programs (the host oracle cannot model SMC, so
    // the slow interpreter is the reference here).
    let fp_cfg = Config::seeded_cases(seed ^ 0xFA57_0B10, cases);
    println!(
        "xt-check: {} fast-path differential programs, seed {:#x}",
        fp_cfg.cases, fp_cfg.seed
    );
    let fp_checked = std::cell::Cell::new(0u32);
    let fp_result = catch_unwind(AssertUnwindSafe(|| {
        check_with(&fp_cfg, "xt_check_fastpath", &FastGen::default(), |spec| {
            if let Err(e) = check_fastpath(spec) {
                panic!("{e}");
            }
            fp_checked.set(fp_checked.get() + 1);
        });
    }));
    match fp_result {
        Ok(()) => println!(
            "xt-check: OK — {} self-modifying programs, block cache \
             architecturally invisible",
            fp_checked.get()
        ),
        Err(payload) => {
            eprintln!("{}", panic_text(&payload));
            return ExitCode::FAILURE;
        }
    }

    // Interrupt differential: the same fast/slow comparison under a
    // re-arming CLINT timer on the real device bus — asynchronous
    // delivery must be architecturally invisible to the block cache.
    let irq_cfg = Config::seeded_cases(seed ^ 0x1247_0B10, cases);
    println!(
        "xt-check: {} interrupt-delivery programs, seed {:#x}",
        irq_cfg.cases, irq_cfg.seed
    );
    let irq_checked = std::cell::Cell::new(0u32);
    let irq_result = catch_unwind(AssertUnwindSafe(|| {
        check_with(&irq_cfg, "xt_check_interrupts", &IrqGen::default(), |spec| {
            if let Err(e) = check_interrupts(spec) {
                panic!("{e}");
            }
            irq_checked.set(irq_checked.get() + 1);
        });
    }));
    match irq_result {
        Ok(()) => println!(
            "xt-check: OK — {} timer-preempted programs, fast and slow \
             engines retire identical streams",
            irq_checked.get()
        ),
        Err(payload) => {
            eprintln!("{}", panic_text(&payload));
            return ExitCode::FAILURE;
        }
    }

    // Vector differential: random kernels through the full compile
    // grid (scalar vs. auto-vectorized, base vs. tuned), both execution
    // engines, and the OoO model's vector top-down invariants.
    let vec_cases = (cases / 2).max(8);
    let vec_cfg = Config::seeded_cases(seed ^ 0x7EC7_0B10, vec_cases);
    println!(
        "xt-check: {} vector kernels, seed {:#x}",
        vec_cfg.cases, vec_cfg.seed
    );
    let vec_checked = std::cell::Cell::new(0u32);
    let vec_result = catch_unwind(AssertUnwindSafe(|| {
        check_with(&vec_cfg, "xt_check_vector", &VecGen, |spec| {
            if let Err(e) = check_vector(spec) {
                panic!("{e}");
            }
            vec_checked.set(vec_checked.get() + 1);
        });
    }));
    match vec_result {
        Ok(()) => println!(
            "xt-check: OK — {} vector kernels, scalar/vector/fast/slow/OoO \
             agree and vector top-down conserves",
            vec_checked.get()
        ),
        Err(payload) => {
            eprintln!("{}", panic_text(&payload));
            return ExitCode::FAILURE;
        }
    }

    // Snapshot/resume identity: cut a run at a random point, restore
    // the frame into a fresh instance, and require bit-identical
    // continuation (counters, memory stats, exit codes) plus
    // byte-stable re-saves.
    let snap_cases = (cases / 4).max(4);
    let snap_cfg = Config::seeded_cases(seed ^ 0x5A4B_0B10, snap_cases);
    println!(
        "xt-check: {} snapshot/resume workloads, seed {:#x}",
        snap_cfg.cases, snap_cfg.seed
    );
    let snap_checked = std::cell::Cell::new(0u32);
    let snap_result = catch_unwind(AssertUnwindSafe(|| {
        check_with(&snap_cfg, "xt_check_snapshot", &SnapGen::default(), |spec| {
            if let Err(e) = check_snapshot_identity(spec) {
                panic!("{e}");
            }
            snap_checked.set(snap_checked.get() + 1);
        });
    }));
    match snap_result {
        Ok(()) => println!(
            "xt-check: OK — {} snapshotted runs resume bit-identically",
            snap_checked.get()
        ),
        Err(payload) => {
            eprintln!("{}", panic_text(&payload));
            return ExitCode::FAILURE;
        }
    }

    if self_test {
        // The checker must catch a deliberately broken oracle and hand
        // back a shrunk, replayable counterexample.
        let fault_cfg = Config::seeded_cases(seed, cases);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check_with(&fault_cfg, "xt_check_self_test", &gen, |spec| {
                if let Err(e) = check_program(spec, Fault::DivuZeroGivesZero) {
                    panic!("{e}");
                }
            });
        }));
        match caught {
            Ok(()) => {
                eprintln!(
                    "xt-check: SELF-TEST FAILED — injected oracle fault went undetected"
                );
                return ExitCode::FAILURE;
            }
            Err(payload) => {
                let msg = panic_text(&payload);
                if msg.contains("minimal input") && msg.contains("XT_HARNESS_SEED") {
                    println!(
                        "xt-check: self-test OK — injected fault caught with a shrunk, \
                         seed-replayable counterexample"
                    );
                } else {
                    eprintln!("xt-check: SELF-TEST FAILED — no shrunk counterexample:\n{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
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
