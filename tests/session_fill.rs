//! The slice path is the per-step path.
//!
//! `Session::run_insts` and `run_to_end` hand the timing core a slice of
//! retired records per fill, a decoded block at a time
//! (`TraceSource::fill`; docs/FASTPATH.md, "Step driver"). A session
//! driven one record at a time by `Session::step` must end with the same
//! `RunReport` and a byte-equal `save()` frame, and so must one that
//! first runs `run_insts(k)` and then `run_to_end`; after `run_insts(k)`
//! it must also hold the frame of `k` steps. Both cores, on guests that
//! end a fill every way one can end: block ends, stores over the running
//! block, traps, a halt and the instruction limit in mid-block, an
//! interrupt-driven guest (one record per fill) and a fatal error in
//! mid-block.

mod common;

use xt_asm::{Asm, Program};
use xt_compiler::CompileOpts;
use xt_core::session::CoreModel;
use xt_core::{CoreConfig, InOrderCore, OooCore, RunReport, Session};
use xt_emu::{Emulator, ExecError, TraceSource};
use xt_isa::csr;
use xt_isa::reg::Gpr;
use xt_isa::{Inst, Op};
use xt_mem::MemSystem;

/// The `run_insts` chunk sizes: one record, a fill's length and its
/// neighbours, a prime, and many fills.
const KS: [u64; 6] = [1, 7, 63, 64, 65, 1000];

/// One guest: its program, whether it gets the MMIO bus (and with it
/// interrupts), and its instruction limit.
struct Case {
    name: String,
    prog: Program,
    bus: bool,
    limit: u64,
}

impl Case {
    fn new(name: &str, prog: Program) -> Self {
        Case {
            name: name.to_string(),
            prog,
            bus: false,
            limit: 2_000_000,
        }
    }

    fn session<C: CoreModel>(&self, cfg: &CoreConfig) -> Session<C> {
        let mut emu = Emulator::new();
        emu.load(&self.prog);
        if self.bus {
            xt_soc::attach_bus(&mut emu, 1);
        }
        Session::from_parts(
            TraceSource::new(emu, self.limit),
            C::new_core(cfg.clone(), 0),
            MemSystem::new(cfg.mem),
        )
    }
}

/// How a run ended: everything in its report, and its frame.
#[derive(PartialEq, Debug)]
struct End {
    retired: u64,
    machine: &'static str,
    perf: xt_core::PerfCounters,
    mem: xt_mem::MemStats,
    exit_code: Option<u64>,
    error: Option<ExecError>,
    frame: Vec<u8>,
}

fn end<C: CoreModel>(s: &mut Session<C>, report: RunReport) -> End {
    End {
        retired: s.retired(),
        machine: report.machine,
        perf: report.perf,
        mem: report.mem,
        exit_code: report.exit_code,
        error: s.trace().error.clone(),
        frame: s.save(),
    }
}

/// Runs `case` every way on core `C` and checks each against the
/// `Session::step` loop; returns the stepped end for case-specific
/// checks.
fn check<C: CoreModel>(case: &Case, cfg: &CoreConfig) -> End {
    let ctx = &case.name;
    // the reference: one record per step, with the frame at every k
    let mut stepped = case.session::<C>(cfg);
    let mut frames_at_k = Vec::new();
    while stepped.step() {
        if KS.contains(&stepped.retired()) {
            frames_at_k.push((stepped.retired(), stepped.save()));
        }
    }
    let report = stepped.finish_report();
    let want = end(&mut stepped, report);
    assert!(want.retired > 0, "{ctx}: the guest ran");

    let mut straight = case.session::<C>(cfg);
    let report = straight.run_to_end();
    let got = end(&mut straight, report);
    assert!(got == want, "{ctx}: run_to_end differs from the step loop");

    for k in KS {
        let mut s = case.session::<C>(cfg);
        let ran = s.run_insts(k);
        assert_eq!(ran, k.min(want.retired), "{ctx}: run_insts({k}) count");
        if let Some((_, frame)) = frames_at_k.iter().find(|(at, _)| *at == k) {
            assert!(
                s.save() == *frame,
                "{ctx}: frame after run_insts({k}) differs from {k} steps"
            );
        }
        let report = s.run_to_end();
        let got = end(&mut s, report);
        assert!(
            got == want,
            "{ctx}: run_insts({k}) + run_to_end differs from the step loop"
        );
    }
    want
}

/// [`check`] on both cores.
fn check_both(case: &Case) -> [End; 2] {
    [
        check::<OooCore>(case, &CoreConfig::xt910()),
        check::<InOrderCore>(case, &CoreConfig::u74_like()),
    ]
}

/// A program that jumps over a trap handler at the text base + 4 and
/// then runs `main`. The handler counts traps in `s11`, steps `mepc`
/// past the trapping 4-byte instruction and returns.
fn with_handler(main: impl FnOnce(&mut Asm)) -> Program {
    let mut a = Asm::new();
    let start = a.new_label();
    a.jump(start);
    a.csrr(Gpr::T5, csr::MEPC);
    a.addi(Gpr::T5, Gpr::T5, 4);
    a.csrw(csr::MEPC, Gpr::T5);
    a.addi(Gpr::S11, Gpr::S11, 1);
    a.mret();
    a.bind(start).unwrap();
    a.li(Gpr::T5, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(csr::MTVEC, Gpr::T5);
    main(&mut a);
    a.finish().unwrap()
}

#[test]
fn coremark_kernels() {
    for k in xt_workloads::coremark::all(&CompileOpts::optimized()) {
        let [ooo, _] = check_both(&Case::new(k.name, k.program));
        assert_eq!(ooo.exit_code, k.expected, "{}: self-check", k.name);
    }
}

#[test]
fn stores_over_the_running_block() {
    for (name, prog) in common::smc::all() {
        let [ooo, _] = check_both(&Case::new(name, prog));
        assert!(ooo.exit_code.is_some(), "{name}: halted");
    }
}

/// `ecall` ends its block after a run of ALU entries, and a `vsetvli`
/// asking for an unsupported SEW traps (illegal instruction) in the
/// middle of one; the handler resumes after each.
#[test]
fn traps_in_mid_block() {
    let prog = with_handler(|a| {
        a.li(Gpr::T1, 40);
        let top = a.here();
        for _ in 0..5 {
            a.addi(Gpr::A5, Gpr::A5, 3);
        }
        a.ecall();
        a.addi(Gpr::A5, Gpr::A5, 1);
        // vsew = 7 is reserved: sets vill, which traps
        a.push(Inst::new(Op::Vsetvli).rd(Gpr::A6.index()).imm(7 << 2));
        a.xor_(Gpr::A5, Gpr::A5, Gpr::T1);
        a.addi(Gpr::T1, Gpr::T1, -1);
        a.bnez(Gpr::T1, top);
        a.mv(Gpr::A0, Gpr::S11);
        a.halt();
    });
    for e in check_both(&Case::new("traps", prog)) {
        assert_eq!(e.exit_code, Some(80), "an ecall and a vsetvli trap a round");
    }
}

/// The halt store sits in the middle of a block: ALU entries follow it.
#[test]
fn halt_in_mid_block() {
    let mut a = Asm::new();
    a.li(Gpr::T1, 30);
    let top = a.here();
    a.addi(Gpr::A0, Gpr::A0, 2);
    a.addi(Gpr::T1, Gpr::T1, -1);
    a.bnez(Gpr::T1, top);
    a.li(Gpr::T6, xt_asm::HALT_ADDR as i64);
    a.sd(Gpr::A0, Gpr::T6, 0);
    for _ in 0..8 {
        a.addi(Gpr::A0, Gpr::A0, 1); // never retires
    }
    a.halt();
    let prog = a.finish().unwrap();
    for e in check_both(&Case::new("halt", prog)) {
        assert_eq!(e.exit_code, Some(60));
    }
}

/// The limit lands inside a 40-entry block, at a different entry for
/// each limit.
#[test]
fn limit_in_mid_block() {
    let mut a = Asm::new();
    let top = a.here();
    for r in 0..40 {
        a.addi(Gpr::A0, Gpr::A0, r);
    }
    a.jump(top);
    let prog = a.finish().unwrap();
    for limit in [17, 1_000 + 23, 1_000 + 63] {
        let case = Case {
            limit,
            ..Case::new(&format!("limit {limit}"), prog.clone())
        };
        for e in check_both(&case) {
            assert_eq!((e.retired, e.exit_code), (limit, None));
        }
    }
}

/// The single-hart scheduler takes timer interrupts through the MMIO
/// bus, so each of its fills retires one record.
#[test]
fn interrupt_guest() {
    let case = Case {
        bus: true,
        ..Case::new("sched", xt_workloads::sched::scheduler_program(1))
    };
    for e in check_both(&case) {
        assert_eq!(e.exit_code, Some(xt_workloads::sched::EXIT_OK));
    }
}

/// With no trap vector, a misaligned `lr.d` after five ALU entries of
/// its block is fatal: those five still reach the core.
#[test]
fn fatal_error_in_mid_block() {
    let mut a = Asm::new();
    let cell = a.data_zeros("cell", 16);
    a.li(Gpr::T1, 3);
    let top = a.here();
    a.addi(Gpr::A0, Gpr::A0, 1);
    a.addi(Gpr::T1, Gpr::T1, -1);
    a.bnez(Gpr::T1, top);
    a.la(Gpr::A1, cell + 4);
    for _ in 0..5 {
        a.addi(Gpr::A0, Gpr::A0, 1);
    }
    a.lr_d(Gpr::A2, Gpr::A1);
    a.halt();
    let prog = a.finish().unwrap();
    let ended = check_both(&Case::new("fatal", prog));
    for e in ended {
        assert!(
            matches!(e.error, Some(ExecError::UnhandledTrap { .. })),
            "{:?}",
            e.error
        );
        assert_eq!(e.exit_code, None);
        assert_eq!(e.perf.instructions, e.retired);
    }
}
