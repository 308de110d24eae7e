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
//! ## Replay workflow
//!
//! The fixed suite seed is [`SUITE_SEED`]. Any failure printed by the
//! harness can be reproduced with
//! `XT_HARNESS_SEED=<seed> cargo test -p xt-check` (or the `xt-check`
//! binary with `--seed`).

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
use progen::{ProgSpec, NREGS, NSLOTS, REG_MAP};
use xt_asm::Program;
use xt_emu::Emulator;

/// Fixed seed for the standing conformance suite (CI and tests).
pub const SUITE_SEED: u64 = 0xC8EC_2020_0910_0001;

/// Dynamic instruction budget per program.
const MAX_INSTS: u64 = 1_000_000;

/// Disassembles a program's text section (one instruction per line,
/// with addresses) for failure artifacts.
pub fn disasm_program(prog: &Program) -> String {
    let mut out = String::new();
    for (i, word) in prog.text.chunks_exact(4).enumerate() {
        let w = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let pc = prog.text_base + 4 * i as u64;
        match xt_isa::decode(w) {
            Ok(inst) => out.push_str(&format!("  {pc:#x}: {}\n", xt_isa::disasm::disasm(&inst))),
            Err(_) => out.push_str(&format!("  {pc:#x}: .word {w:#010x}\n")),
        }
    }
    out
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
        disasm_program(&prog)
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
                disasm_program(&prog)
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
                SpecOp::Alu { op: AluOp::Sll, rd: 2, rs1: 0, rs2: 1 }, // shamt masks to 0
                SpecOp::Alu { op: AluOp::Divu, rd: 3, rs1: 0, rs2: 4 }, // div by zero
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
                SpecOp::Alu { op: AluOp::Divu, rd: 1, rs1: 0, rs2: 2 },
            ],
        };
        let err = check_conformance(&spec, Fault::DivuZeroGivesZero)
            .expect_err("fault must be observable");
        assert!(err.contains("divergence"), "describes the mismatch: {err}");
        assert!(err.contains("divu"), "artifact disassembles the program: {err}");
    }

    #[test]
    fn disasm_artifact_covers_whole_program() {
        let spec = ProgSpec {
            ops: vec![SpecOp::Li { rd: 0, imm: 1 }],
        };
        let (prog, _) = spec.emit();
        let txt = disasm_program(&prog);
        assert!(txt.contains("halt") || txt.contains("ecall") || !txt.is_empty());
        assert_eq!(txt.lines().count(), prog.text.len() / 4);
    }
}
