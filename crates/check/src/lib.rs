//! `xt-check` — cross-model conformance and invariant checking.
//!
//! The V&V layer of the simulator: constrained random programs
//! ([`progen`]) are executed by the functional emulator and compared
//! against a compact host-side oracle ([`oracle`]), then replayed
//! through both timing models under structural invariants
//! ([`invariants`]); generated multi-core workloads additionally run
//! through the epoch-barriered cluster engine under determinism,
//! makespan, and snoop-conservation laws ([`cluster`]); and random
//! workloads preempted by a re-arming CLINT timer must retire
//! identically with the decoded-block engine on and off
//! ([`interrupts`]); and random vector kernels must produce identical
//! results across the `rv64gc|rv64gcv × base|tuned` compile grid, both
//! execution engines, and the OoO timing model, whose six-bucket
//! top-down decomposition (including the vector bucket) must conserve
//! ([`vector`]); and a run snapshotted at a random cut point must
//! resume bit-identically from the frame in a fresh instance
//! ([`snapshot`]). Failures shrink through the `xt-harness` engine
//! and carry a replay artifact: the failing seed, the disassembled
//! program, and a per-stage timing summary.
//!
//! Each phase is one row of [`PHASES`]: its name, seed salt, case
//! counts and runner. The `xt-check` binary loops over the table, and
//! each phase's unit test is [`Phase::test`] on its row, so the two draw
//! the same cases from the same seed.
//!
//! ## Replay workflow
//!
//! The fixed suite seed is [`SUITE_SEED`]. Any failure printed by the
//! harness can be reproduced with
//! `XT_HARNESS_SEED=<seed> cargo test -p xt-check <phase>` (or the
//! `xt-check` binary with `--seed`).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod fastpath;
pub mod interrupts;
pub mod invariants;
pub mod oracle;
pub mod progen;
pub mod snapshot;
pub mod vector;

use oracle::Fault;
use progen::{ProgGen, ProgSpec, NREGS, NSLOTS, REG_MAP};
use xt_asm::Program;
use xt_emu::Emulator;
use xt_harness::{check_with, Config, Gen};

/// Fixed seed for the standing conformance suite (CI and tests).
pub const SUITE_SEED: u64 = 0xC8EC_2020_0910_0001;

/// Dynamic instruction budget per program, in every phase.
const MAX_INSTS: u64 = 1_000_000;

/// One phase: generated cases checked against one property.
pub struct Phase {
    /// The phase's name: the property's name in a failure's replay line.
    pub name: &'static str,
    /// What one case is, for the binary's progress lines.
    pub cases_of: &'static str,
    /// What a clean run shows, for the binary's OK line.
    pub holds: &'static str,
    /// Xored into the suite seed, so each phase draws its own cases.
    pub salt: u64,
    /// Cases the phase's unit test runs.
    pub test_cases: u32,
    /// The binary runs `max(cases / divisor, floor)` cases for its
    /// `--cases`.
    pub divisor: u32,
    /// See [`Phase::divisor`].
    pub floor: u32,
    /// Checks every case `cfg` draws; panics with the shrunk,
    /// seed-replayable artifact of the first failure.
    pub run: fn(cfg: &Config, name: &str),
}

impl Phase {
    /// The configuration for `cases` cases from suite seed `seed`
    /// (`XT_HARNESS_SEED` / `XT_HARNESS_CASES` override both).
    pub fn config(&self, seed: u64, cases: u32) -> Config {
        Config::seeded_cases(seed ^ self.salt, cases)
    }

    /// The binary's case count for its `--cases`.
    pub fn cli_cases(&self, cases: u32) -> u32 {
        (cases / self.divisor).max(self.floor)
    }

    /// The phase's unit test: the binary's seed, [`Phase::test_cases`]
    /// cases.
    pub fn test(&self) {
        (self.run)(&self.config(SUITE_SEED, self.test_cases), self.name);
    }
}

/// Every phase, in the order the binary runs them.
pub const PHASES: [Phase; 6] = [
    Phase {
        name: "programs",
        cases_of: "programs",
        holds: "zero emulator/oracle divergences, zero invariant violations",
        salt: 0,
        test_cases: 64,
        divisor: 1,
        floor: 0,
        run: |cfg, name| {
            prop(cfg, name, &ProgGen::default(), |s| {
                check_program(s, Fault::None)
            })
        },
    },
    Phase {
        name: "cluster",
        cases_of: "cluster workloads",
        holds: "determinism + makespan + snoop conservation hold",
        salt: 0xC105_7E12,
        test_cases: 24,
        divisor: 4,
        floor: 4,
        run: |cfg, name| {
            prop(
                cfg,
                name,
                &cluster::ClusterGen::default(),
                cluster::check_cluster_invariants,
            )
        },
    },
    Phase {
        name: "fastpath",
        cases_of: "self-modifying programs",
        holds: "decoded blocks and the reference interpreter leave byte-equal frames",
        salt: 0xFA57_0B10,
        test_cases: 24,
        divisor: 1,
        floor: 0,
        run: |cfg, name| {
            prop(
                cfg,
                name,
                &fastpath::FastGen::default(),
                fastpath::check_fastpath,
            )
        },
    },
    Phase {
        name: "interrupts",
        cases_of: "timer-preempted programs",
        holds: "both engines leave byte-equal frames and device buses",
        salt: 0x1247_0B10,
        test_cases: 24,
        divisor: 1,
        floor: 0,
        run: |cfg, name| {
            prop(
                cfg,
                name,
                &interrupts::IrqGen::default(),
                interrupts::check_interrupts,
            )
        },
    },
    Phase {
        name: "vector",
        cases_of: "vector kernels",
        holds: "scalar/vector/fast/slow/OoO agree and vector top-down conserves",
        salt: 0x7EC7_0B10,
        test_cases: 12,
        divisor: 2,
        floor: 8,
        run: |cfg, name| prop(cfg, name, &vector::VecGen, vector::check_vector),
    },
    Phase {
        name: "snapshot",
        cases_of: "snapshot/resume workloads",
        holds: "snapshotted runs resume bit-identically",
        salt: 0x5A4B_0B10,
        test_cases: 16,
        divisor: 4,
        floor: 4,
        run: |cfg, name| {
            prop(
                cfg,
                name,
                &snapshot::SnapGen::default(),
                snapshot::check_snapshot_identity,
            )
        },
    },
];

/// The row of [`PHASES`] named `name`.
///
/// # Panics
///
/// If no phase has that name.
pub fn phase(name: &str) -> &'static Phase {
    PHASES
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no xt-check phase {name:?}"))
}

/// Checks every case `cfg` draws from `gen`, turning the first `Err`
/// into the harness's shrunk, replayable panic.
fn prop<G: Gen>(
    cfg: &Config,
    name: &str,
    gen: &G,
    check: impl Fn(&G::Value) -> Result<(), String>,
) {
    check_with(cfg, name, gen, |value| {
        if let Err(e) = check(value) {
            panic!("{e}");
        }
    });
}

/// Runs `prog` on both engines ([`xt_emu::run_both_engines`], `setup`
/// after the load) and requires it to halt: the runner of the fast-path
/// and interrupt phases.
fn run_engines(prog: &Program, setup: impl Fn(&mut Emulator)) -> Result<[Emulator; 2], String> {
    let emus = xt_emu::run_both_engines(prog, MAX_INSTS, setup)?;
    match emus[0].halted {
        Some(_) => Ok(emus),
        None => Err(format!("no halt within {MAX_INSTS} instructions")),
    }
}

/// Runs `spec` on the emulator and compares the final architectural
/// state against the oracle evaluated with `fault` (use
/// [`Fault::None`] for real checking; other faults self-test the
/// checker). On divergence returns a replay artifact describing the
/// mismatch alongside the disassembly.
pub fn check_conformance(spec: &ProgSpec, fault: Fault) -> Result<(), String> {
    let (prog, scratch) = spec.emit();
    let mut emu = Emulator::new();
    emu.load(&prog);
    emu.run(MAX_INSTS)
        .map_err(|e| format!("emulator error on generated program: {e:?}"))?;
    let expect = oracle::eval(spec, fault);

    let mut diffs = Vec::new();
    for (i, gpr) in REG_MAP.iter().enumerate().take(NREGS) {
        let got = emu.cpu.rx(gpr.index());
        if got != expect.regs[i] {
            diffs.push(format!(
                "  reg r{i} ({gpr}): emu {got:#x} != oracle {:#x}",
                expect.regs[i]
            ));
        }
    }
    for slot in 0..NSLOTS {
        let got = emu.mem.read_u64(scratch + 8 * slot as u64);
        if got != expect.mem[slot] {
            diffs.push(format!(
                "  mem[{slot}]: emu {got:#x} != oracle {:#x}",
                expect.mem[slot]
            ));
        }
    }
    if diffs.is_empty() {
        return Ok(());
    }
    Err(format!(
        "emulator/oracle divergence:\n{}\nprogram:\n{}",
        diffs.join("\n"),
        prog.disassemble()
    ))
}

/// Full check for one program: conformance against the oracle, then
/// timing-model invariants. The `Err` carries the replay artifact.
pub fn check_program(spec: &ProgSpec, fault: Fault) -> Result<(), String> {
    check_conformance(spec, fault)?;
    match invariants::check_invariants(spec) {
        Ok(_) => Ok(()),
        Err(e) => {
            let (prog, _) = spec.emit();
            Err(format!(
                "timing invariant violated: {e}\nprogram:\n{}",
                prog.disassemble()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progen::{AluOp, SpecOp};

    #[test]
    fn handwritten_spec_conforms() {
        let spec = ProgSpec {
            ops: vec![
                SpecOp::Li { rd: 0, imm: -7 },
                SpecOp::Li { rd: 1, imm: 64 },
                SpecOp::Alu {
                    op: AluOp::Sll,
                    rd: 2,
                    rs1: 0,
                    rs2: 1,
                }, // shamt masks to 0
                SpecOp::Alu {
                    op: AluOp::Divu,
                    rd: 3,
                    rs1: 0,
                    rs2: 4,
                }, // div by zero
                SpecOp::Store { rs: 2, slot: 3 },
                SpecOp::Load { rd: 5, slot: 3 },
            ],
        };
        check_program(&spec, Fault::None).expect("spec conforms");
    }

    #[test]
    fn injected_fault_reports_divergence_with_artifact() {
        // divu-by-zero: real emulator yields all-ones, the faulty oracle 0
        let spec = ProgSpec {
            ops: vec![
                SpecOp::Li { rd: 0, imm: 7 },
                SpecOp::Alu {
                    op: AluOp::Divu,
                    rd: 1,
                    rs1: 0,
                    rs2: 2,
                },
            ],
        };
        let err = check_conformance(&spec, Fault::DivuZeroGivesZero)
            .expect_err("fault must be observable");
        assert!(err.contains("divergence"), "describes the mismatch: {err}");
        assert!(
            err.contains("divu"),
            "artifact disassembles the program: {err}"
        );
    }

    #[test]
    fn disasm_artifact_covers_whole_program() {
        let spec = ProgSpec {
            ops: vec![SpecOp::Li { rd: 0, imm: 1 }],
        };
        let (prog, _) = spec.emit();
        let txt = prog.disassemble();
        assert!(txt.contains("halt") || txt.contains("ecall") || !txt.is_empty());
        // one line per instruction, the 2-byte ones marked: together
        // they span the text byte for byte
        let len = |l: &str| {
            if l.ends_with("# c") || l.contains(".half") {
                2
            } else {
                4
            }
        };
        let bytes: usize = txt.lines().map(len).sum();
        assert_eq!(bytes, prog.text.len());
    }
}
