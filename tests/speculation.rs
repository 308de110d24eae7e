//! Speculation mechanisms (paper Fig. 8, §III-A, §V-A): exception
//! flushes, branch misprediction costs, memory-ordering violations and
//! the dependence predictor.

use xt_asm::Asm;
use xt_core::{CoreConfig, OooSession};
use xt_emu::{Emulator, StepOutcome};
use xt_isa::csr;
use xt_isa::reg::Gpr;

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
    let mut saw_trap = false;
    loop {
        match emu.step().unwrap() {
            StepOutcome::Retired(d) => {
                if d.trapped {
                    saw_trap = true;
                }
            }
            StepOutcome::Halted(code) => {
                assert_eq!(code, 3);
                break;
            }
            StepOutcome::NeedsBarrier => unreachable!("no cluster gating here"),
        }
    }
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
