//! Direct unit tests for emulator trap paths: misaligned LR/SC/AMO
//! (which must raise address-misaligned exceptions per the A extension)
//! versus plain loads/stores (which the XT-910 handles in hardware),
//! plus AMO value-semantics corner cases.
//!
//! Each trapping program installs a tiny machine-mode handler that halts
//! with a sentinel; the host then inspects `mcause`/`mepc`/`mtval`
//! directly through the public CSR interface.

use xt_asm::{Asm, Program};
use xt_emu::{run_both_engines, Emulator};
use xt_isa::csr;
use xt_isa::reg::Gpr;

/// Exit code the trap handler reports.
const TRAP_SENTINEL: u64 = 0xdead;

/// Load-address-misaligned cause.
const CAUSE_LOAD_MISALIGNED: u64 = 4;
/// Store/AMO-address-misaligned cause.
const CAUSE_STORE_MISALIGNED: u64 = 6;

/// Builds a program with a trap handler at a fixed address that halts
/// with `TRAP_SENTINEL`, then runs `build` as the main body.
fn run_with_handler(build: impl FnOnce(&mut Asm)) -> Emulator {
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    // handler: 4 bytes past the text base (the jump is never compressed)
    a.li(Gpr::A0, TRAP_SENTINEL as i64);
    a.halt();
    a.bind(main).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    build(&mut a);
    a.halt();
    run(&a.finish().unwrap())
}

/// Runs `p` to its halt on both engines and returns the decoded-block
/// emulator.
fn run(p: &Program) -> Emulator {
    let [emu, _] = run_both_engines(p, 100_000, |_| {}).unwrap_or_else(|e| panic!("{e}"));
    assert!(emu.halted.is_some(), "halts");
    emu
}

#[test]
fn lr_misaligned_traps_load_cause() {
    let mut addr = 0;
    let emu = run_with_handler(|a| {
        addr = a.data_zeros("buf", 16) + 1;
        a.la(Gpr::A1, addr);
        a.lr_d(Gpr::A2, Gpr::A1);
        a.li(Gpr::A0, 1); // unreachable on trap
    });
    assert_eq!(emu.halted, Some(TRAP_SENTINEL), "LR must trap");
    assert_eq!(emu.cpu.read_csr(csr::MCAUSE), CAUSE_LOAD_MISALIGNED);
    assert_eq!(emu.cpu.read_csr(csr::MTVAL), addr, "mtval holds the bad address");
    let mepc = emu.cpu.read_csr(csr::MEPC);
    assert!(mepc >= xt_asm::DEFAULT_TEXT_BASE, "mepc points into text: {mepc:#x}");
}

#[test]
fn lr_w_misaligned_traps() {
    let emu = run_with_handler(|a| {
        let buf = a.data_zeros("buf", 16);
        a.la(Gpr::A1, buf + 2); // 2-aligned but not 4-aligned
        a.lr_w(Gpr::A2, Gpr::A1);
    });
    assert_eq!(emu.halted, Some(TRAP_SENTINEL));
    assert_eq!(emu.cpu.read_csr(csr::MCAUSE), CAUSE_LOAD_MISALIGNED);
}

#[test]
fn sc_misaligned_traps_store_cause() {
    let mut addr = 0;
    let emu = run_with_handler(|a| {
        let buf = a.data_zeros("buf", 16);
        addr = buf + 4; // 4-aligned but not 8-aligned
        a.la(Gpr::A1, buf);
        a.lr_d(Gpr::A2, Gpr::A1); // valid reservation on the aligned cell
        a.la(Gpr::A3, addr);
        a.li(Gpr::A4, 7);
        a.sc_d(Gpr::A5, Gpr::A4, Gpr::A3);
    });
    assert_eq!(emu.halted, Some(TRAP_SENTINEL), "SC must trap before the reservation check");
    assert_eq!(emu.cpu.read_csr(csr::MCAUSE), CAUSE_STORE_MISALIGNED);
    assert_eq!(emu.cpu.read_csr(csr::MTVAL), addr);
}

#[test]
fn amo_misaligned_traps_store_cause() {
    let mut addr = 0;
    let emu = run_with_handler(|a| {
        addr = a.data_zeros("buf", 16) + 2;
        a.la(Gpr::A1, addr);
        a.li(Gpr::A2, 1);
        a.amoadd_w(Gpr::A3, Gpr::A2, Gpr::A1);
    });
    assert_eq!(emu.halted, Some(TRAP_SENTINEL));
    assert_eq!(emu.cpu.read_csr(csr::MCAUSE), CAUSE_STORE_MISALIGNED);
    assert_eq!(emu.cpu.read_csr(csr::MTVAL), addr);
}

#[test]
fn amo_d_requires_8_byte_alignment() {
    let emu = run_with_handler(|a| {
        let buf = a.data_zeros("buf", 16);
        a.la(Gpr::A1, buf + 4); // fine for amoadd.w, not for amoadd.d
        a.li(Gpr::A2, 1);
        a.amoadd_d(Gpr::A3, Gpr::A2, Gpr::A1);
    });
    assert_eq!(emu.halted, Some(TRAP_SENTINEL));
    assert_eq!(emu.cpu.read_csr(csr::MCAUSE), CAUSE_STORE_MISALIGNED);
}

#[test]
fn misaligned_plain_load_store_still_succeed() {
    // The XT-910 handles misaligned scalar accesses in hardware, so
    // ordinary loads/stores at odd addresses must NOT trap.
    let emu = run_with_handler(|a| {
        let buf = a.data_zeros("buf", 32);
        a.la(Gpr::A1, buf);
        a.li(Gpr::A2, 0x1122_3344_5566_7788);
        a.sd(Gpr::A2, Gpr::A1, 3);
        a.ld(Gpr::A3, Gpr::A1, 3);
        a.sh(Gpr::A2, Gpr::A1, 17);
        a.lhu(Gpr::A4, Gpr::A1, 17);
        a.add(Gpr::A0, Gpr::A3, Gpr::A4);
    });
    assert_eq!(
        emu.halted,
        Some(0x1122_3344_5566_7788u64.wrapping_add(0x7788)),
        "no trap, data round-trips"
    );
    assert_eq!(emu.cpu.read_csr(csr::MCAUSE), 0, "no exception recorded");
}

#[test]
fn trap_handler_can_mret_past_faulting_amo() {
    // A handler that bumps mepc by 4 and returns must let the program
    // complete; exercises the mepc/mret round trip on this trap class.
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    // handler: skip the faulting (uncompressed) instruction
    a.csrr(Gpr::T1, csr::MEPC);
    a.addi(Gpr::T1, Gpr::T1, 4);
    a.csrw(csr::MEPC, Gpr::T1);
    a.mret();
    a.bind(main).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    let buf = a.data_zeros("buf", 16);
    a.la(Gpr::A1, buf + 1);
    a.li(Gpr::A2, 5);
    a.amoadd_w(Gpr::A3, Gpr::A2, Gpr::A1); // traps, handler skips it
    a.li(Gpr::A0, 123);
    a.halt();
    let emu = run(&a.finish().unwrap());
    assert_eq!(emu.halted, Some(123));
    assert_eq!(emu.cpu.read_csr(csr::MCAUSE), CAUSE_STORE_MISALIGNED);
}

#[test]
fn amomin_w_is_signed() {
    // mem holds 0xffff_ffff (= -1 signed); amomin.w with 1 must keep -1
    // and return the old value sign-extended.
    let emu = run_with_handler(|a| {
        let cell = a.data_u64("cell", &[0xffff_ffff]);
        a.la(Gpr::A1, cell);
        a.li(Gpr::A2, 1);
        a.amomin_w(Gpr::A3, Gpr::A2, Gpr::A1);
        a.lw(Gpr::A4, Gpr::A1, 0); // sign-extends: -1
        a.sub(Gpr::A0, Gpr::A3, Gpr::A4); // old(-1) - new(-1) = 0 iff both right
    });
    assert_eq!(emu.halted, Some(0), "signed min keeps -1 and returns sign-extended old");
}

#[test]
fn amomaxu_w_is_unsigned() {
    // Unsigned max of 0xffff_ffff and 1 is 0xffff_ffff — a signed max
    // would wrongly pick 1.
    let emu = run_with_handler(|a| {
        let cell = a.data_u64("cell", &[0xffff_ffff]);
        a.la(Gpr::A1, cell);
        a.li(Gpr::A2, 1);
        a.amomaxu_w(Gpr::A3, Gpr::A2, Gpr::A1);
        a.lwu(Gpr::A0, Gpr::A1, 0);
    });
    assert_eq!(emu.halted, Some(0xffff_ffff));
}

#[test]
fn sc_without_reservation_fails() {
    let emu = run_with_handler(|a| {
        let cell = a.data_u64("cell", &[42]);
        a.la(Gpr::A1, cell);
        a.li(Gpr::A2, 99);
        a.sc_d(Gpr::A3, Gpr::A2, Gpr::A1); // no LR: must fail with rd=1
        a.ld(Gpr::A4, Gpr::A1, 0);
        // a0 = sc-result * 1000 + memory value
        a.li(Gpr::A5, 1000);
        a.mul(Gpr::A3, Gpr::A3, Gpr::A5);
        a.add(Gpr::A0, Gpr::A3, Gpr::A4);
    });
    assert_eq!(emu.halted, Some(1042), "SC fails (1) and memory keeps 42");
}

// ---------------------------------------------------------------------
// trap-entry mstatus stacking and Mret/Sret return semantics (ISSUE 7)
// ---------------------------------------------------------------------

use xt_isa::csr::mstatus;

/// Regression: taking a trap must stack `mstatus.MIE` into `MPIE` and
/// clear `MIE` (so the handler runs with interrupts masked), and `mret`
/// must restore `MIE` from `MPIE` and set `MPIE` back to 1.
#[test]
fn trap_stacks_mie_and_mret_restores_it() {
    let mut a = Asm::new();
    let main = a.new_label();
    a.jump(main);
    // handler: capture mstatus as seen inside the trap, step past the
    // ecall, and return
    a.csrr(Gpr::A2, csr::MSTATUS);
    a.csrr(Gpr::T1, csr::MEPC);
    a.addi(Gpr::T1, Gpr::T1, 4);
    a.csrw(csr::MEPC, Gpr::T1);
    a.mret();
    a.bind(main).unwrap();
    a.li(Gpr::T0, (xt_asm::DEFAULT_TEXT_BASE + 4) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    a.li(Gpr::T0, mstatus::MIE as i64);
    a.csrs(csr::MSTATUS, Gpr::T0); // interrupts on before the trap
    a.ecall();
    a.csrr(Gpr::A0, csr::MSTATUS); // mstatus after the round trip
    a.halt();
    let emu = run(&a.finish().unwrap());
    let after = emu.halted.unwrap();
    let inside = emu.cpu.x[12]; // a2
    assert_eq!(inside & mstatus::MIE, 0, "handler runs with MIE clear");
    assert_ne!(inside & mstatus::MPIE, 0, "prior MIE stacked into MPIE");
    assert_eq!(
        inside & mstatus::MPP_MASK,
        mstatus::MPP_MASK,
        "MPP records the trapped-from mode (M = 3)"
    );
    assert_ne!(after & mstatus::MIE, 0, "mret restored MIE from MPIE");
    assert_ne!(after & mstatus::MPIE, 0, "mret leaves MPIE set");
}

/// Regression: `mret` with MPP = U must actually drop to user mode.
#[test]
fn mret_honors_mpp_user() {
    let mut a = Asm::new();
    let setup = a.new_label();
    a.jump(setup);
    let target = a.pc();
    a.li(Gpr::A0, 11);
    a.halt();
    a.bind(setup).unwrap();
    a.li(Gpr::T0, mstatus::MPP_MASK as i64);
    a.csrc(csr::MSTATUS, Gpr::T0); // MPP = 0 (U)
    a.li(Gpr::T0, target as i64);
    a.csrw(csr::MEPC, Gpr::T0);
    a.mret();
    let emu = run(&a.finish().unwrap());
    assert_eq!(emu.halted, Some(11));
    assert_eq!(emu.cpu.mode, xt_emu::PrivMode::User);
}

/// Regression: `sret` must read the return mode from `sstatus.SPP`
/// (not mstatus.MPP), restore `SIE` from `SPIE`, set `SPIE`, and clear
/// `SPP`.
#[test]
fn sret_returns_to_spp_mode_and_restores_sie() {
    for (spp, want_mode) in [
        (mstatus::SPP, xt_emu::PrivMode::Supervisor),
        (0, xt_emu::PrivMode::User),
    ] {
        let mut a = Asm::new();
        let setup = a.new_label();
        a.jump(setup);
        let target = a.pc();
        a.li(Gpr::A0, 21);
        a.halt();
        a.bind(setup).unwrap();
        a.li(Gpr::T0, (spp | mstatus::SPIE) as i64);
        a.csrs(csr::SSTATUS, Gpr::T0);
        a.li(Gpr::T0, target as i64);
        a.csrw(csr::SEPC, Gpr::T0);
        a.sret();
        let emu = run(&a.finish().unwrap());
        assert_eq!(emu.halted, Some(21), "spp={spp:#x}");
        assert_eq!(emu.cpu.mode, want_mode, "spp={spp:#x}");
        let ss = emu.cpu.read_csr(csr::SSTATUS);
        assert_ne!(ss & mstatus::SIE, 0, "SIE restored from SPIE");
        assert_ne!(ss & mstatus::SPIE, 0, "SPIE set by sret");
        assert_eq!(ss & mstatus::SPP, 0, "SPP cleared by sret");
    }
}
