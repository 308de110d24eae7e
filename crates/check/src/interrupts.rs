//! Interrupt-delivery differential phase: random workloads preempted by
//! a re-arming CLINT timer, run through the real `xt-soc` device bus
//! with the decoded-block engine on and off.
//!
//! Asynchronous delivery is the hardest thing for the fast path to get
//! right: the poll must fire before *every* instruction, including in
//! the middle of a cached block, and `mtime` must advance exactly with
//! `instret`. Each generated [`IrqSpec`] — a random [`ProgSpec`]
//! workload under a random quantum, first-compare offset, and vectoring
//! mode — must retire the identical instruction stream and final state
//! both ways, and the two runs' device buses must agree (same `mtime`,
//! same interrupt count, no denied accesses). Failures shrink through
//! `xt-harness` (shorter workloads, direct vectoring, longer quanta)
//! and replay from the printed `XT_HARNESS_SEED`.

use crate::disasm_program;
use crate::progen::{ProgGen, ProgSpec, NSLOTS};
use xt_asm::{Asm, Program};
use xt_emu::Emulator;
use xt_harness::{Gen, Rng};
use xt_isa::csr;
use xt_isa::reg::Gpr;
use xt_soc::{attach_bus, bus_of};

/// Dynamic instruction budget per program.
const MAX_INSTS: u64 = 1_000_000;

/// One interrupt-delivery case: a generated workload preempted by a
/// timer handler that re-arms itself every `stride` ticks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IrqSpec {
    /// The preempted workload (registers per [`crate::progen::REG_MAP`]
    /// plus `s0`/`s1`; the handler owns `s3`-`s5`, boot/epilogue
    /// `t1`/`t2`).
    pub spec: ProgSpec,
    /// Re-arm stride in ticks (small strides walk the preemption point
    /// across every instruction of the workload's loops).
    pub stride: u16,
    /// First compare value (ticks after reset).
    pub cmp0: u16,
    /// Vectored (`mtvec` mode 1) or direct delivery.
    pub vectored: bool,
    /// End the program with an armed WFI instead of falling straight to
    /// the exit (exercises the wake-into-handler path).
    pub wfi_epilogue: bool,
}

impl IrqSpec {
    /// Assembles the case against the standard CLINT window.
    pub fn emit(&self) -> Program {
        use xt_emu::platform::{clint_map, CLINT_BASE};
        let mtime = CLINT_BASE + clint_map::MTIME;
        let mtimecmp = CLINT_BASE + clint_map::MTIMECMP_BASE;

        let mut a = Asm::new();
        let scratch = a.data_zeros("scratch", NSLOTS * 8);
        let boot = a.new_label();
        a.jump(boot);

        // handler: count in s3, re-arm `stride` ticks ahead, return.
        // In vectored mode this sits behind a 12-slot jump table; slot
        // 7 (MTI) is the only slot an interrupt may ever hit, and
        // synchronous traps cannot happen in generated workloads.
        let handler = a.new_label();
        let vec_base = a.pc();
        if self.vectored {
            for _ in 0..12 {
                a.jump(handler);
            }
        }
        // The handler may preempt the boot/epilogue mid-`la` (between
        // the lui and the addi), so it must not touch t1/t2 — it owns
        // s3 (count) and s4/s5 (scratch) exclusively.
        a.bind(handler).unwrap();
        a.addi(Gpr::S3, Gpr::S3, 1);
        a.la(Gpr::S4, mtime);
        a.ld(Gpr::S5, Gpr::S4, 0);
        a.addi(Gpr::S5, Gpr::S5, self.stride.max(1) as i64);
        a.la(Gpr::S4, mtimecmp);
        a.sd(Gpr::S5, Gpr::S4, 0);
        a.mret();

        a.bind(boot).unwrap();
        let mode = if self.vectored {
            csr::mtvec::MODE_VECTORED
        } else {
            0
        };
        a.li(Gpr::T1, (vec_base | mode) as i64);
        a.csrw(csr::MTVEC, Gpr::T1);
        a.li(Gpr::T1, 1 << csr::irq::MTI);
        a.csrw(csr::MIE, Gpr::T1);
        a.li(Gpr::T1, csr::mstatus::MIE as i64);
        a.csrs(csr::MSTATUS, Gpr::T1);
        a.la(Gpr::T1, mtimecmp);
        a.li(Gpr::T2, self.cmp0.max(1) as i64);
        a.sd(Gpr::T2, Gpr::T1, 0);

        a.la(Gpr::S0, scratch);
        self.spec.emit_ops(&mut a);
        if self.wfi_epilogue {
            // arm a short one-shot and wait for it
            a.la(Gpr::T1, mtime);
            a.ld(Gpr::T2, Gpr::T1, 0);
            a.addi(Gpr::T2, Gpr::T2, 50);
            a.la(Gpr::T1, mtimecmp);
            a.sd(Gpr::T2, Gpr::T1, 0);
            a.wfi();
        }
        a.mv(Gpr::A0, Gpr::S3);
        a.halt();
        a.finish().expect("generated irq spec assembles")
    }
}

/// Generator for [`IrqSpec`]s.
#[derive(Clone, Debug, Default)]
pub struct IrqGen {
    prog: ProgGen,
}

impl Gen for IrqGen {
    type Value = IrqSpec;

    fn generate(&self, rng: &mut Rng) -> IrqSpec {
        IrqSpec {
            spec: self.prog.generate(rng),
            stride: rng.gen_range(16, 200) as u16,
            cmp0: rng.gen_range(1, 50) as u16,
            vectored: rng.gen_bool(0.5),
            wfi_epilogue: rng.gen_bool(0.4),
        }
    }

    fn shrink(&self, value: &IrqSpec) -> Vec<IrqSpec> {
        let mut out = Vec::new();
        for cand in self.prog.shrink(&value.spec) {
            out.push(IrqSpec {
                spec: cand,
                ..value.clone()
            });
        }
        if value.vectored {
            out.push(IrqSpec {
                vectored: false,
                ..value.clone()
            });
        }
        if value.wfi_epilogue {
            out.push(IrqSpec {
                wfi_epilogue: false,
                ..value.clone()
            });
        }
        if value.stride < 600 {
            out.push(IrqSpec {
                stride: 600,
                ..value.clone()
            });
        }
        out
    }
}

fn run_one(prog: &Program, fastpath: bool) -> Result<Emulator, String> {
    let mut emu = Emulator::new();
    emu.set_fastpath(fastpath);
    emu.load(prog);
    attach_bus(&mut emu, 1);
    emu.run(MAX_INSTS)
        .map_err(|e| format!("emulator error (fastpath={fastpath}): {e:?}"))?;
    Ok(emu)
}

/// Runs `spec` with the block cache on and off and compares the final
/// architectural *and device* state. On divergence returns a replay
/// artifact with the differing fields and the disassembly.
pub fn check_interrupts(spec: &IrqSpec) -> Result<(), String> {
    let prog = spec.emit();
    let fast = run_one(&prog, true)?;
    let slow = run_one(&prog, false)?;

    let mut diffs = Vec::new();
    if fast.halted != slow.halted {
        diffs.push(format!(
            "  exit code (interrupt count): fast {:?} != slow {:?}",
            fast.halted, slow.halted
        ));
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
    if fast.mem.snapshot_nonzero() != slow.mem.snapshot_nonzero() {
        diffs.push("  guest memory differs".to_string());
    }
    let (fb, sb) = (bus_of(&fast).unwrap(), bus_of(&slow).unwrap());
    if fb.clint.mtime() != sb.clint.mtime() {
        diffs.push(format!(
            "  mtime: fast {} != slow {}",
            fb.clint.mtime(),
            sb.clint.mtime()
        ));
    }
    if !fb.denied.is_empty() || !sb.denied.is_empty() {
        diffs.push(format!(
            "  denied device accesses: fast {:?} slow {:?}",
            fb.denied, sb.denied
        ));
    }
    if diffs.is_empty() {
        return Ok(());
    }
    Err(format!(
        "interrupt delivery diverges between engines on {spec:?}:\n{}\nprogram:\n{}",
        diffs.join("\n"),
        disasm_program(&prog)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_harness::prop::{check_with, Config};

    #[test]
    fn standing_irq_suite_holds() {
        let cfg = Config::seeded_cases(crate::SUITE_SEED ^ 0x1297_0001, 24);
        check_with(&cfg, "standing_irq_suite_holds", &IrqGen::default(), |s| {
            if let Err(e) = check_interrupts(s) {
                panic!("{e}");
            }
        });
    }

    #[test]
    fn interrupts_actually_fire_in_generated_cases() {
        // the phase is vacuous if no generated case ever takes an
        // interrupt: over a fixed sample, most must
        let cfg = Config::seeded_cases(0x1297_0002, 16);
        let fired = std::cell::Cell::new(0u32);
        check_with(
            &cfg,
            "interrupts_actually_fire_in_generated_cases",
            &IrqGen::default(),
            |s| {
                let prog = s.emit();
                let emu = run_one(&prog, true).unwrap();
                if emu.halted.unwrap_or(0) > 0 {
                    fired.set(fired.get() + 1);
                }
            },
        );
        assert!(fired.get() >= 8, "only {} cases interrupted", fired.get());
    }
}
