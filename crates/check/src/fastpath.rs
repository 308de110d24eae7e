//! Fast-path differential phase: decoded-block engine vs. per-step
//! decode on constrained random programs with code-patching stores.
//!
//! The host oracle in [`crate::oracle`] cannot evaluate self-modifying
//! code, so this phase uses the seed interpreter itself as the
//! reference: each generated [`FastSpec`] — a random [`ProgSpec`]
//! workload followed by a loop that stores a freshly encoded
//! instruction word over its own body — runs once with the block cache
//! on and once with it off, and the complete architectural outcome
//! (registers, PC, instret, CSRs, console, exit code, nonzero memory)
//! must match bit for bit. Failures shrink through `xt-harness`
//! (shorter workloads, fewer patch iterations, no `fence.i`) and
//! replay from the printed `XT_HARNESS_SEED`.

use crate::disasm_program;
use crate::progen::{ProgGen, ProgSpec, NSLOTS};
use xt_asm::{Asm, Program};
use xt_emu::Emulator;
use xt_harness::{Gen, Rng};
use xt_isa::reg::Gpr;
use xt_isa::{Inst, Op};

/// Dynamic instruction budget per program.
const MAX_INSTS: u64 = 1_000_000;

/// A fast-path differential case: a generated workload plus a
/// self-modifying epilogue loop.
///
/// The epilogue runs `iters` times; each iteration executes a patchable
/// `li t3, orig_imm` site, accumulates it, and stores the encoding of
/// `addi t3, x0, patch_imm` over that very site — so iteration 1 sees
/// `orig_imm` and every later iteration must see `patch_imm`, even
/// though the block executing the store is the block being invalidated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FastSpec {
    /// The base workload (exercises block building over random control
    /// flow before any patching happens).
    pub spec: ProgSpec,
    /// Self-modifying epilogue iterations (≥ 1).
    pub iters: u8,
    /// Immediate at the patch site as assembled.
    pub orig_imm: i16,
    /// Immediate stored over the site at run time.
    pub patch_imm: i16,
    /// Follow each patching store with `fence.i`.
    pub fence_i: bool,
}

impl FastSpec {
    /// Assembles the case. Registers: the workload owns the
    /// [`crate::progen::REG_MAP`] pool plus `s0`/`s1`; the epilogue uses
    /// only `t1`-`t5`, so the two compose without interference.
    pub fn emit(&self) -> Program {
        let mut a = Asm::new();
        let scratch = a.data_zeros("scratch", NSLOTS * 8);
        a.la(Gpr::S0, scratch);
        self.spec.emit_ops(&mut a);

        // self-modifying epilogue
        a.li(Gpr::T4, self.iters as i64);
        let top = a.here();
        let site = a.pc();
        a.li(Gpr::T3, self.orig_imm as i64); // 4-byte addi; patched below
        a.add(Gpr::T5, Gpr::T5, Gpr::T3);
        a.li(Gpr::T1, site as i64);
        let word = xt_isa::encode::encode(
            &Inst::new(Op::Addi).rd(Gpr::T3.index()).rs1(0).imm(self.patch_imm as i64),
        )
        .expect("patch word encodes");
        a.li(Gpr::T2, word as i64);
        a.sw(Gpr::T2, Gpr::T1, 0);
        if self.fence_i {
            a.fence_i();
        }
        a.addi(Gpr::T4, Gpr::T4, -1);
        a.bnez(Gpr::T4, top);
        a.mv(Gpr::A0, Gpr::T5);
        a.halt();
        a.finish().expect("generated fast-path spec assembles")
    }
}

/// Generator for [`FastSpec`]s.
#[derive(Clone, Debug, Default)]
pub struct FastGen {
    prog: ProgGen,
}

impl Gen for FastGen {
    type Value = FastSpec;

    fn generate(&self, rng: &mut Rng) -> FastSpec {
        FastSpec {
            spec: self.prog.generate(rng),
            iters: rng.gen_range_u64(1, 7) as u8,
            orig_imm: rng.gen_range(0, 2048) as i16,
            patch_imm: rng.gen_range(0, 2048) as i16,
            fence_i: rng.gen_bool(0.5),
        }
    }

    fn shrink(&self, value: &FastSpec) -> Vec<FastSpec> {
        let mut out = Vec::new();
        // member-wise workload shrinking: the biggest simplification
        for cand in self.prog.shrink(&value.spec) {
            out.push(FastSpec {
                spec: cand,
                ..value.clone()
            });
        }
        if value.iters > 1 {
            out.push(FastSpec {
                iters: 1,
                ..value.clone()
            });
        }
        if value.fence_i {
            out.push(FastSpec {
                fence_i: false,
                ..value.clone()
            });
        }
        for (orig, patch) in [(0, value.patch_imm), (value.orig_imm, 0)] {
            if (orig, patch) != (value.orig_imm, value.patch_imm) {
                out.push(FastSpec {
                    orig_imm: orig,
                    patch_imm: patch,
                    ..value.clone()
                });
            }
        }
        out
    }
}

fn run_one(prog: &Program, fastpath: bool) -> Result<Emulator, String> {
    let mut emu = Emulator::new();
    emu.set_fastpath(fastpath);
    emu.load(prog);
    emu.run(MAX_INSTS)
        .map_err(|e| format!("emulator error (fastpath={fastpath}): {e:?}"))?;
    Ok(emu)
}

/// Runs `spec` with the block cache on and off and compares the final
/// architectural state field by field. On divergence returns a replay
/// artifact with the differing fields and the disassembly.
pub fn check_fastpath(spec: &FastSpec) -> Result<(), String> {
    let prog = spec.emit();
    let fast = run_one(&prog, true)?;
    let slow = run_one(&prog, false)?;

    let mut diffs = Vec::new();
    if fast.halted != slow.halted {
        diffs.push(format!(
            "  exit code: fast {:?} != slow {:?}",
            fast.halted, slow.halted
        ));
    }
    if fast.cpu.pc != slow.cpu.pc {
        diffs.push(format!("  pc: fast {:#x} != slow {:#x}", fast.cpu.pc, slow.cpu.pc));
    }
    if fast.cpu.instret != slow.cpu.instret {
        diffs.push(format!(
            "  instret: fast {} != slow {}",
            fast.cpu.instret, slow.cpu.instret
        ));
    }
    for i in 0..32 {
        if fast.cpu.x[i] != slow.cpu.x[i] {
            diffs.push(format!(
                "  x{i}: fast {:#x} != slow {:#x}",
                fast.cpu.x[i], slow.cpu.x[i]
            ));
        }
    }
    if fast.cpu.csrs != slow.cpu.csrs || fast.cpu.satp() != slow.cpu.satp() {
        diffs.push("  CSR files differ".to_string());
    }
    if fast.console != slow.console {
        diffs.push("  console output differs".to_string());
    }
    if fast.mem.snapshot_nonzero() != slow.mem.snapshot_nonzero() {
        diffs.push("  guest memory differs".to_string());
    }
    if diffs.is_empty() {
        return Ok(());
    }
    Err(format!(
        "fast path diverges from per-step decode on {spec:?}:\n{}\nprogram:\n{}",
        diffs.join("\n"),
        disasm_program(&prog)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_harness::prop::{check_with, Config};

    /// Standing differential smoke: the same phase CI runs, at reduced
    /// case count.
    #[test]
    fn fastpath_differential_holds() {
        let cfg = Config::seeded_cases(crate::SUITE_SEED ^ 0xFA57, 24);
        check_with(&cfg, "fastpath_differential", &FastGen::default(), |spec| {
            if let Err(e) = check_fastpath(spec) {
                panic!("{e}");
            }
        });
    }

    /// The epilogue really self-modifies: iteration 1 sees `orig_imm`,
    /// later iterations the patched immediate.
    #[test]
    fn epilogue_patch_is_architectural() {
        let spec = FastSpec {
            spec: ProgSpec { ops: Vec::new() },
            iters: 5,
            orig_imm: 3,
            patch_imm: 200,
            fence_i: true,
        };
        let prog = spec.emit();
        let emu = run_one(&prog, true).unwrap();
        assert_eq!(emu.halted, Some(3 + 4 * 200));
        let emu = run_one(&prog, false).unwrap();
        assert_eq!(emu.halted, Some(3 + 4 * 200));
    }
}
