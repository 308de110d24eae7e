//! Vector-unit timing through the whole pipeline (§VII): operation
//! latencies, slice occupancy and the vsetvl speculation rule.

use xt_asm::Asm;
use xt_core::{CoreConfig, OooSession};
use xt_isa::reg::{Gpr, Vr};
use xt_isa::vector::Sew;
use xt_isa::{Inst, Op};

fn vec_loop(op: Op, iters: i64) -> xt_asm::Program {
    let mut a = Asm::new();
    let x = a.data_u32("x", &[3, 5, 7, 9]);
    a.li(Gpr::A1, 4);
    a.vsetvli(Gpr::T1, Gpr::A1, Sew::E32, 1);
    a.la(Gpr::A2, x);
    a.vle(Vr::new(1), Gpr::A2);
    a.vle(Vr::new(2), Gpr::A2);
    a.li(Gpr::S1, iters);
    let top = a.here();
    // dependent chain: v3 = v3 <op> v1 repeatedly
    a.push(Inst::new(op).rd(3).rs1(3).rs2(1));
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.li(Gpr::A0, 0);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn dependent_vector_chains_expose_latency() {
    let add = OooSession::new(&vec_loop(Op::VaddVV, 2000), &CoreConfig::xt910(), 10_000_000).run_to_end();
    let mul = OooSession::new(&vec_loop(Op::VmulVV, 2000), &CoreConfig::xt910(), 10_000_000).run_to_end();
    let div = OooSession::new(&vec_loop(Op::VdivVV, 2000), &CoreConfig::xt910(), 10_000_000).run_to_end();
    // §VII: most ops 3-4 cycles, divides 6-25 — the dependent chain
    // makes the latency the loop period
    assert!(
        mul.perf.cycles >= add.perf.cycles,
        "mul ({}) >= add ({})",
        mul.perf.cycles,
        add.perf.cycles
    );
    assert!(
        div.perf.cycles > mul.perf.cycles * 2,
        "divide chains much slower: div {} vs mul {}",
        div.perf.cycles,
        mul.perf.cycles
    );
    // add chain period ~3 cycles/iter
    let per_iter = add.perf.cycles as f64 / 2000.0;
    assert!(
        (2.0..6.0).contains(&per_iter),
        "vadd chain period ~3: {per_iter:.1}"
    );
}

#[test]
fn fp_vector_multiply_is_five_cycles() {
    // vfmul chain: §VII quotes exactly 5 cycles
    let mut a = Asm::new();
    let x = a.data_f32("x", &[1.0, 1.0, 1.0, 1.0]);
    a.li(Gpr::A1, 4);
    a.vsetvli(Gpr::T1, Gpr::A1, Sew::E32, 1);
    a.la(Gpr::A2, x);
    a.vle(Vr::new(1), Gpr::A2);
    a.vle(Vr::new(3), Gpr::A2);
    a.li(Gpr::S1, 2000);
    let top = a.here();
    a.vfmul_vv(Vr::new(3), Vr::new(3), Vr::new(1));
    a.addi(Gpr::S1, Gpr::S1, -1);
    a.bnez(Gpr::S1, top);
    a.li(Gpr::A0, 0);
    a.halt();
    let p = a.finish().unwrap();
    let r = OooSession::new(&p, &CoreConfig::xt910(), 10_000_000).run_to_end();
    let per_iter = r.perf.cycles as f64 / 2000.0;
    assert!(
        (4.5..6.5).contains(&per_iter),
        "vfmul dependent chain ~5 cycles/iter: {per_iter:.2}"
    );
}

#[test]
fn vsetvl_speculation_only_fails_on_vl_change() {
    // constant vtype/vl in a loop: speculation holds, cheap
    let steady = |alternate: bool| {
        let mut a = Asm::new();
        let x = a.data_u32("x", &[1, 2, 3, 4, 5, 6, 7, 8]);
        a.la(Gpr::A2, x);
        a.li(Gpr::S1, 1000);
        let top = a.here();
        a.li(Gpr::A1, 4);
        a.vsetvli(Gpr::T1, Gpr::A1, Sew::E32, 1);
        a.vle(Vr::new(1), Gpr::A2);
        if alternate {
            // a second, different vtype every iteration defeats the
            // vector-parameter prediction (§VII)
            a.li(Gpr::A1, 8);
            a.vsetvli(Gpr::T1, Gpr::A1, Sew::E16, 1);
            a.vle(Vr::new(2), Gpr::A2);
        } else {
            a.li(Gpr::A1, 4);
            a.vsetvli(Gpr::T1, Gpr::A1, Sew::E32, 1);
            a.vle(Vr::new(2), Gpr::A2);
        }
        a.addi(Gpr::S1, Gpr::S1, -1);
        a.bnez(Gpr::S1, top);
        a.li(Gpr::A0, 0);
        a.halt();
        a.finish().unwrap()
    };
    let stable = OooSession::new(&steady(false), &CoreConfig::xt910(), 10_000_000).run_to_end();
    let churn = OooSession::new(&steady(true), &CoreConfig::xt910(), 10_000_000).run_to_end();
    assert!(
        churn.perf.cycles > stable.perf.cycles,
        "vtype churn costs speculation failures: {} vs {}",
        churn.perf.cycles,
        stable.perf.cycles
    );
}
