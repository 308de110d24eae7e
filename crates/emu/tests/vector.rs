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

/// A unit-stride access wraps past the top of the address space, as a
/// scalar access does: `vse` at `-8` with four 32-bit elements writes
/// the last two to addresses 0 and 4, and `vle` reads them back.
#[test]
fn unit_stride_addresses_wrap_past_the_top() {
    let emu = run(|a| {
        let x = a.data_u32("x", &[1, 2, 3, 4]);
        a.li(Gpr::A1, 4);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
        a.la(Gpr::A2, x);
        a.vle(Vr::new(1), Gpr::A2);
        a.li(Gpr::A3, -8);
        a.vse(Vr::new(1), Gpr::A3);
        a.vle(Vr::new(2), Gpr::A3);
        a.vmv_v_i(Vr::new(3), 0);
        a.vredsum_vs(Vr::new(4), Vr::new(2), Vr::new(3));
        a.vmv_x_s(Gpr::A4, Vr::new(4));
        // the wrapped half, read back by scalar loads from address 0
        a.lw(Gpr::A5, Gpr::ZERO, 0);
        a.lw(Gpr::A6, Gpr::ZERO, 4);
        a.slli(Gpr::A4, Gpr::A4, 8);
        a.slli(Gpr::A5, Gpr::A5, 4);
        a.add(Gpr::A0, Gpr::A4, Gpr::A5);
        a.add(Gpr::A0, Gpr::A0, Gpr::A6);
    });
    assert_eq!(emu.halted, Some((10 << 8) + (3 << 4) + 4));
}

/// `vslidedown.vx` by `-1`: every source index is past `vl` (or past
/// 2^64), so every element reads 0.
#[test]
fn slidedown_past_vl_reads_zero() {
    let emu = run(|a| {
        let x = a.data_u32("x", &[1, 2, 3, 4]);
        a.li(Gpr::A1, 4);
        a.vsetvli(Gpr::A0, Gpr::A1, Sew::E32, 1);
        a.la(Gpr::A2, x);
        a.vle(Vr::new(1), Gpr::A2);
        a.vmv_v_i(Vr::new(2), 7);
        a.li(Gpr::A3, -1);
        a.push(
            xt_isa::Inst::new(xt_isa::Op::Vslidedown)
                .rd(2)
                .rs1(1)
                .rs2(Gpr::A3.index()),
        );
        a.vmv_v_i(Vr::new(3), 0);
        a.vredsum_vs(Vr::new(4), Vr::new(2), Vr::new(3));
        a.vmv_x_s(Gpr::A0, Vr::new(4));
    });
    assert_eq!(emu.halted, Some(0));
}

/// A scalar operand a guest might hand a vector op to break it: a base
/// near 2^64, `-1`, a slide offset at or past `vl`, or anything.
fn hostile(rng: &mut xt_harness::Rng) -> u64 {
    const EDGES: [u64; 8] = [0, 1, 4, 7, 8, 100, 1 << 63, 1 << 32];
    match rng.below(4) {
        0 => u64::MAX - rng.below(64),
        1 => *rng.choose(&EDGES),
        2 => rng.below(512),
        _ => rng.next_u64(),
    }
}

/// `vsetvli` (hostile `avl`, any SEW and LMUL) then one vector op whose
/// scalar operands are hostile and whose register groups may wrap past
/// `v31`: no panic in either build profile, and both engines end with
/// equal frames (whatever the outcome, a trap included).
#[test]
fn hostile_scalar_operands_neither_panic_nor_split_the_engines() {
    use xt_harness::gen;
    use xt_harness::prop::{check_with, Config};
    use xt_isa::{Inst, Op};
    const OPS: [Op; 16] = [
        Op::Vle,
        Op::Vse,
        Op::Vlse,
        Op::Vsse,
        Op::Vlxe,
        Op::Vsxe,
        Op::Vslidedown,
        Op::Vslideup,
        Op::VaddVX,
        Op::VsllVX,
        Op::VsraVX,
        Op::VmulVX,
        Op::VmaccVX,
        Op::VmvSX,
        Op::VmvXS,
        Op::VwmaccVV,
    ];
    const SEWS: [Sew; 4] = [Sew::E8, Sew::E16, Sew::E32, Sew::E64];
    let g = (
        gen::ints(0usize..OPS.len()),
        gen::ints(0usize..SEWS.len()),
        gen::ints(0u8..4),
        gen::from_fn(|rng| [hostile(rng), hostile(rng), hostile(rng)]),
        gen::ints(0u8..32),
        gen::ints(0u8..32),
    );
    check_with(
        &Config::seeded_cases(0x0DD_BA5E, 128),
        "hostile_scalar_operands_neither_panic_nor_split_the_engines",
        &g,
        |&(opi, si, lmul_log2, [avl, a, b], vd, vs)| {
            let op = OPS[opi];
            let mut asm = xt_asm::Asm::new();
            asm.li(Gpr::A1, avl as i64);
            asm.vsetvli(Gpr::A0, Gpr::A1, SEWS[si], 1 << lmul_log2);
            asm.li(Gpr::A2, a as i64);
            asm.li(Gpr::A3, b as i64);
            // hostile element values too: indices of vlxe/vsxe, the
            // source of a slide
            asm.push(Inst::new(Op::VmvVX).rd(vs).rs1(Gpr::A3.index()));
            let (rs1, rs2) = (Gpr::A2.index(), Gpr::A3.index());
            asm.push(match op {
                Op::Vle | Op::Vlse => Inst::new(op).rd(vd).rs1(rs1).rs2(rs2),
                Op::Vse | Op::Vsse => Inst::new(op).rs1(rs1).rs2(rs2).rs3(vd),
                Op::Vlxe => Inst::new(op).rd(vd).rs1(rs1).rs3(vs),
                Op::Vsxe => Inst::new(op).rs1(rs1).rs2(vs).rs3(vd),
                Op::VmvSX => Inst::new(op).rd(vd).rs1(rs2),
                Op::VmvXS => Inst::new(op).rd(Gpr::A0.index()).rs1(vs),
                Op::VwmaccVV => Inst::new(op).rd(vd).rs1(vs).rs2(vs).rs3(vd),
                _ => Inst::new(op).rd(vd).rs1(vs).rs2(rs2).rs3(vd),
            });
            asm.halt();
            let p = asm.finish().unwrap();
            if let Err(e) = run_both_engines(&p, 1000, |_| {}) {
                panic!("{op:?}: {e}");
            }
        },
    );
}
