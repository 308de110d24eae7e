//! Speculation mechanisms (paper Fig. 8, §III-A, §V-A): exception
//! flushes, branch misprediction costs, memory-ordering violations and
//! the dependence predictor.

use xt_asm::{Asm, Program};
use xt_core::session::CoreModel;
use xt_core::{CoreConfig, InOrderCore, OooCore, OooSession, Session};
use xt_emu::platform::{clint_map, CLINT_BASE};
use xt_emu::{DynInst, Emulator, TraceSource};
use xt_isa::csr;
use xt_isa::reg::Gpr;
use xt_mem::MemSystem;

/// Fig. 8: an exception retires its instruction, younger speculative
/// work is flushed, and control transfers to the handler.
#[test]
fn exception_flushes_younger_work() {
    let mut a = Asm::new();
    let handler = a.new_label();
    let main = a.new_label();
    a.jump(main);
    a.bind(handler).unwrap();
    // the handler observes a1: the younger `a1 = 99` must NOT have
    // architecturally executed before the trap
    a.mv(Gpr::A0, Gpr::A1);
    a.halt();
    a.bind(main).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    a.li(Gpr::A1, 7);
    a.ecall(); // trap here
    a.li(Gpr::A1, 99); // younger: must be squashed
    a.halt();
    let p = a.finish().unwrap();
    let mut emu = Emulator::new();
    emu.load(&p);
    assert_eq!(emu.run(100_000).unwrap(), 7, "younger write squashed");

    // the timing model charges a flush for the trap
    let r = OooSession::new(&p, &CoreConfig::xt910(), 100_000).run_to_end();
    assert!(r.perf.exception_flushes >= 1);
}

/// A trapped load, store or LR executed nothing, so its record carries no
/// memory access. Both timing cores time it as a fault without one, and
/// retire what `Emulator::run` retires: a denied byte read of the CLINT's
/// `mtime` (cause 5), a denied doubleword store to `msip` (cause 7) and a
/// misaligned `lr.d` (cause 4), each taken three times by a handler
/// that skips the faulting instruction.
#[test]
fn trapped_memory_records_time_without_an_access() {
    fn timed<C: CoreModel>(p: &Program, cfg: &CoreConfig) -> (Option<u64>, u64, u64) {
        let mut emu = Emulator::new();
        emu.load(p);
        xt_soc::attach_bus(&mut emu, 1);
        let trace = TraceSource::new(emu, 100_000);
        let mut s =
            Session::from_parts(trace, C::new_core(cfg.clone(), 0), MemSystem::new(cfg.mem));
        let r = s.run_to_end();
        assert_eq!(r.perf.instructions, s.retired(), "every record was timed");
        assert_eq!(r.perf.exception_flushes, 3, "each trap flushed");
        (r.exit_code, s.trace().emulator().cpu.instret, r.perf.cycles)
    }
    // the faulting instruction, by the cause it raises
    let fault = |a: &mut Asm, cause: u64| match cause {
        5 => {
            a.la(Gpr::T1, CLINT_BASE + clint_map::MTIME);
            a.lb(Gpr::T2, Gpr::T1, 0);
        }
        7 => {
            a.la(Gpr::T1, CLINT_BASE + clint_map::MSIP_BASE);
            a.sd(Gpr::T2, Gpr::T1, 0);
        }
        _ => {
            a.la(Gpr::T1, xt_asm::DEFAULT_DATA_BASE + 4);
            a.lr_d(Gpr::T2, Gpr::T1);
        }
    };
    for cause in [5, 7, 4] {
        let mut a = Asm::new();
        let boot = a.new_label();
        a.jump(boot);
        let handler = a.pc();
        a.addi(Gpr::A6, Gpr::A6, 1);
        a.csrr(Gpr::A5, csr::MCAUSE);
        a.csrr(Gpr::T0, csr::MEPC);
        a.addi(Gpr::T0, Gpr::T0, 4);
        a.csrw(csr::MEPC, Gpr::T0);
        a.mret();
        a.bind(boot).unwrap();
        a.li(Gpr::T0, handler as i64);
        a.csrw(csr::MTVEC, Gpr::T0);
        for _ in 0..3 {
            fault(&mut a, cause);
        }
        // exit code: the last cause, then the trap count
        a.slli(Gpr::A5, Gpr::A5, 8);
        a.or_(Gpr::A0, Gpr::A5, Gpr::A6);
        a.halt();
        let p = a.finish().unwrap();
        let mut emu = Emulator::new();
        emu.load(&p);
        xt_soc::attach_bus(&mut emu, 1);
        let code = emu.run(100_000).expect("the handler returns");
        assert_eq!(code, cause << 8 | 3, "cause {cause}");
        for (machine, (exit, instret, cycles)) in [
            ("XT-910", timed::<OooCore>(&p, &CoreConfig::xt910())),
            (
                "U74-class",
                timed::<InOrderCore>(&p, &CoreConfig::u74_like()),
            ),
        ] {
            assert_eq!(exit, Some(code), "cause {cause} on the {machine} core");
            assert_eq!(
                instret, emu.cpu.instret,
                "cause {cause} on the {machine} core"
            );
            assert!(cycles > 0);
        }
    }
}

/// Trap entries appear in the committed trace as redirects.
#[test]
fn trap_entry_recorded_in_trace() {
    let mut a = Asm::new();
    let h = a.new_label();
    a.jump(h);
    a.bind(h).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 64) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    a.ecall();
    // pad to offset 64 for the handler
    while a.offset() < 64 {
        a.nop();
    }
    a.li(Gpr::A0, 3);
    a.halt();
    let p = a.finish().unwrap();
    let mut emu = Emulator::new();
    emu.load(&p);
    let mut trace = TraceSource::new(emu, 1_000);
    let mut rec = DynInst::trap_entry(0, 0);
    let mut saw_trap = false;
    while trace.fill(std::slice::from_mut(&mut rec)) == 1 {
        saw_trap |= rec.trapped;
    }
    assert_eq!(trace.exit_code, Some(3));
    assert!(saw_trap, "ecall recorded as a trapping instruction");
}

/// Unpredictable branches must cost measurably more than predictable
/// ones (§III-A: ≥7-cycle correction at the branch-jump unit).
#[test]
fn mispredict_penalty_visible() {
    let branchy = |chaotic: bool| {
        let mut a = Asm::new();
        a.li(Gpr::S0, 123456789);
        a.li(Gpr::S1, 4000);
        let top = a.new_label();
        a.bind(top).unwrap();
        if chaotic {
            // LCG parity: effectively random direction
            a.li(Gpr::T1, 6364136223846793005u64 as i64);
            a.mul(Gpr::S0, Gpr::S0, Gpr::T1);
            a.li(Gpr::T1, 1442695040888963407u64 as i64);
            a.add(Gpr::S0, Gpr::S0, Gpr::T1);
            a.srli(Gpr::T0, Gpr::S0, 33);
            a.andi(Gpr::T0, Gpr::T0, 1);
        } else {
            a.li(Gpr::T0, 1); // always taken
        }
        let skip = a.new_label();
        a.beqz(Gpr::T0, skip);
        a.addi(Gpr::A1, Gpr::A1, 1);
        a.bind(skip).unwrap();
        a.addi(Gpr::S1, Gpr::S1, -1);
        a.bnez(Gpr::S1, top);
        a.halt();
        let p = a.finish().unwrap();
        OooSession::new(&p, &CoreConfig::xt910(), 10_000_000).run_to_end()
    };
    let predictable = branchy(false);
    let chaotic = branchy(true);
    assert!(predictable.perf.branch_accuracy() > 0.99);
    assert!(chaotic.perf.branch_accuracy() < 0.9);
    // compare cost per instruction (instruction counts differ slightly)
    assert!(
        chaotic.perf.cpi() > predictable.perf.cpi() * 1.5,
        "mispredicts must hurt: {:.2} vs {:.2}",
        chaotic.perf.cpi(),
        predictable.perf.cpi()
    );
}

/// §V-A: a load speculating past a conflicting store triggers a global
/// flush, and the dependence predictor prevents recurrence.
#[test]
fn memory_order_violation_and_learning() {
    let mut a = Asm::new();
    let buf = a.data_zeros("buf", 64);
    a.la(Gpr::S2, buf);
    a.li(Gpr::S1, 1000);
    a.li(Gpr::A1, 7);
    let top = a.here();
    // store with slow data and a (cheap) alternating address, so the
    // early-issuing load races its disambiguation every iteration
    a.mul(Gpr::A1, Gpr::A1, Gpr::A1);
    a.mul(Gpr::A1, Gpr::A1, Gpr::A1);
    a.ori(Gpr::A1, Gpr::A1, 3);
    a.andi(Gpr::T2, Gpr::S1, 1);
    a.slli(Gpr::T2, Gpr::T2, 6);
    a.add(Gpr::T1, Gpr::S2, Gpr::T2);
    a.sd(Gpr::A1, Gpr::T1, 0);
    a.ld(Gpr::A3, Gpr::S2, 0); // conflicts on even iterations
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.halt();
    let p = a.finish().unwrap();

    let with_pred = OooSession::new(&p, &CoreConfig::xt910(), 10_000_000).run_to_end();
    let mut cfg = CoreConfig::xt910();
    cfg.mem_dep_predict = false;
    let without = xt_core::OooSession::new(&p, &cfg, 10_000_000).run_to_end();
    assert!(
        with_pred.perf.mem_order_flushes <= 4,
        "predictor caps violations: {}",
        with_pred.perf.mem_order_flushes
    );
    assert!(
        without.perf.mem_order_flushes > 100,
        "no predictor -> recurring violations: {}",
        without.perf.mem_order_flushes
    );
    assert!(
        with_pred.perf.store_forwards > 400,
        "forwarding serves the conflicting loads: {}",
        with_pred.perf.store_forwards
    );
    assert!(without.perf.cycles > with_pred.perf.cycles);
}
