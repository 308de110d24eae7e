//! Integration tests for the RVV 0.7.1 vector subset.

use xt_asm::Asm;
use xt_emu::{run_both_engines, Emulator};
use xt_isa::reg::{Gpr, Vr};
use xt_isa::vector::Sew;

fn run(build: impl FnOnce(&mut Asm)) -> Emulator {
    let mut a = Asm::new();
    build(&mut a);
    a.halt();
    let p = a.finish().unwrap();
    let [emu, _] = run_both_engines(&p, 10_000_000, |_| {}).unwrap_or_else(|e| panic!("{e}"));
    assert!(emu.halted.is_some(), "halts");
    emu
}

#[test]
fn vsetvli_clamps_to_vlmax() {
    let emu = run(|a| {
        a.li(Gpr::A1, 100);
        // VLEN=128, SEW=32 -> VLMAX=4
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
    });
    assert_eq!(emu.halted, Some(4));
}

#[test]
fn vsetvli_x0_requests_vlmax() {
    let emu = run(|a| {
        a.vsetvli(Gpr::A0, Gpr::ZERO, Sew::E16, 1); // VLMAX = 8
    });
    assert_eq!(emu.halted, Some(8));
}

#[test]
fn vector_add_and_reduce() {
    let emu = run(|a| {
        let x = a.data_u32("x", &[1, 2, 3, 4]);
        let y = a.data_u32("y", &[10, 20, 30, 40]);
        a.li(Gpr::A1, 4);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
        a.la(Gpr::A2, x);
        a.la(Gpr::A3, y);
        a.vle(Vr::new(1), Gpr::A2);
        a.vle(Vr::new(2), Gpr::A3);
        a.vadd_vv(Vr::new(3), Vr::new(1), Vr::new(2));
        a.vmv_v_i(Vr::new(4), 0);
        a.vredsum_vs(Vr::new(5), Vr::new(3), Vr::new(4));
        a.vmv_x_s(Gpr::A0, Vr::new(5));
    });
    assert_eq!(emu.halted, Some(11 + 22 + 33 + 44));
}

#[test]
fn vector_store_writes_memory() {
    let emu = run(|a| {
        let out = a.data_zeros("out", 16);
        a.li(Gpr::A1, 4);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
        a.vmv_v_i(Vr::new(1), 7);
        a.la(Gpr::A2, out);
        a.vse(Vr::new(1), Gpr::A2);
        a.lw(Gpr::A0, Gpr::A2, 12);
    });
    assert_eq!(emu.halted, Some(7));
}

#[test]
fn widening_mac_int16() {
    // The paper's AI workhorse: 16-bit MACs accumulating into 32 bits.
    let emu = run(|a| {
        let x = a.data_u16("x", &[100, 200, 300, 400, 500, 600, 700, 800]);
        let w = a.data_u16("w", &[1, 2, 3, 4, 5, 6, 7, 8]);
        a.li(Gpr::A1, 8);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E16, 1); // 8 x e16 in one 128-bit reg
        a.la(Gpr::A2, x);
        a.la(Gpr::A3, w);
        a.vle(Vr::new(1), Gpr::A2);
        a.vle(Vr::new(2), Gpr::A3);
        // acc (v4:v5 pair, e32) = 0
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 2);
        a.vmv_v_i(Vr::new(4), 0);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E16, 1);
        a.vwmacc_vv(Vr::new(4), Vr::new(1), Vr::new(2));
        // reduce the 8 e32 partials
        a.li(Gpr::A1, 8);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 2);
        a.vmv_v_i(Vr::new(8), 0);
        a.vredsum_vs(Vr::new(10), Vr::new(4), Vr::new(8));
        a.vmv_x_s(Gpr::A0, Vr::new(10));
    });
    let expect: u64 = (1..=8u64).map(|i| (i * 100) * i).sum();
    assert_eq!(emu.halted, Some(expect));
}

#[test]
fn strided_load() {
    let emu = run(|a| {
        let x = a.data_u32("x", &[1, 99, 2, 99, 3, 99, 4, 99]);
        a.li(Gpr::A1, 4);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
        a.la(Gpr::A2, x);
        a.li(Gpr::A3, 8); // stride 8 bytes = every other u32
        a.vlse(Vr::new(1), Gpr::A2, Gpr::A3);
        a.vmv_v_i(Vr::new(2), 0);
        a.vredsum_vs(Vr::new(3), Vr::new(1), Vr::new(2));
        a.vmv_x_s(Gpr::A0, Vr::new(3));
    });
    assert_eq!(emu.halted, Some(10));
}

#[test]
fn vector_f32_fmacc() {
    let emu = run(|a| {
        let x = a.data_f32("x", &[1.0, 2.0, 3.0, 4.0]);
        let y = a.data_f32("y", &[0.5, 0.5, 0.5, 0.5]);
        a.li(Gpr::A1, 4);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
        a.la(Gpr::A2, x);
        a.la(Gpr::A3, y);
        a.vle(Vr::new(1), Gpr::A2);
        a.vle(Vr::new(2), Gpr::A3);
        a.vmv_v_i(Vr::new(3), 0);
        a.vfmacc_vv(Vr::new(3), Vr::new(1), Vr::new(2));
        a.vfredsum_vs(Vr::new(4), Vr::new(3), Vr::new(3)); // init with v3[0]=0.5
        a.vmv_x_s(Gpr::A0, Vr::new(4));
    });
    // sum = 0.5+1+1.5+2 = 5.0; + init v3[0] = 0.5 -> 5.5
    let bits = emu.halted.unwrap() as u32;
    assert_eq!(f32::from_bits(bits), 5.5);
}

#[test]
fn vector_f16_dot_product() {
    // Half-precision support — not available on the Cortex-A73's NEON.
    let emu = run(|a| {
        // f16 1.0 = 0x3c00, 2.0 = 0x4000
        let x = a.data_u16("x", &[0x3c00; 8]);
        let y = a.data_u16("y", &[0x4000; 8]);
        a.li(Gpr::A1, 8);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E16, 1);
        a.la(Gpr::A2, x);
        a.la(Gpr::A3, y);
        a.vle(Vr::new(1), Gpr::A2);
        a.vle(Vr::new(2), Gpr::A3);
        a.vmv_v_i(Vr::new(3), 0);
        a.vfmacc_vv(Vr::new(3), Vr::new(1), Vr::new(2));
        a.vmv_v_i(Vr::new(4), 0);
        a.vfredsum_vs(Vr::new(5), Vr::new(3), Vr::new(4));
        a.vmv_x_s(Gpr::A0, Vr::new(5));
    });
    // 8 lanes of 1.0*2.0 summed = 16.0 (f16 0x4c00)
    assert_eq!(emu.halted.unwrap() & 0xffff, 0x4c00);
}

#[test]
fn vadd_vx_and_vi() {
    let emu = run(|a| {
        let x = a.data_u64("x", &[5, 6]);
        a.li(Gpr::A1, 2);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E64, 1);
        a.la(Gpr::A2, x);
        a.vle(Vr::new(1), Gpr::A2);
        a.li(Gpr::A3, 100);
        a.push(
            xt_isa::Inst::new(xt_isa::Op::VaddVX)
                .rd(2)
                .rs1(1)
                .rs2(Gpr::A3.index()),
        );
        a.push(xt_isa::Inst::new(xt_isa::Op::VaddVI).rd(3).rs1(2).imm(-5));
        a.vmv_v_i(Vr::new(4), 0);
        a.vredsum_vs(Vr::new(5), Vr::new(3), Vr::new(4));
        a.vmv_x_s(Gpr::A0, Vr::new(5));
    });
    assert_eq!(emu.halted, Some(100 + 100 + 5 + 6 - 10));
}
