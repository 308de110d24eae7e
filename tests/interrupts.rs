//! End-to-end asynchronous-interrupt tests (docs/INTERRUPTS.md): CLINT
//! timer preemption, MSIP IPIs across the cluster epoch barrier, PLIC
//! claim/complete ordering over MMIO, WFI semantics, and the
//! engine-identity matrix (fast path on/off x thread counts) for the
//! supervisor scheduler workload.

use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_emu::platform::{clint_map, plic_map, CLINT_BASE, PLIC_BASE};
use xt_emu::Emulator;
use xt_isa::csr;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::{attach_bus, bus_of, bus_of_mut, ClusterSim};
use xt_workloads::sched;

const FUEL: u64 = 10_000_000;

/// Runs a program on a single hart with the standard bus attached.
fn run_with_bus(p: &Program, setup: impl FnOnce(&mut xt_soc::MmioBus)) -> (u64, Emulator) {
    let mut emu = Emulator::new();
    emu.load(p);
    setup(attach_bus(&mut emu, 1));
    let code = emu.run(FUEL).expect("guest must halt");
    (code, emu)
}

/// Arms the hart-0 CLINT timer `delta` ticks ahead (guest code).
fn arm_timer(a: &mut Asm, delta: i64) {
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIME);
    a.ld(Gpr::T2, Gpr::T1, 0);
    a.li(Gpr::T3, delta);
    a.add(Gpr::T2, Gpr::T2, Gpr::T3);
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIMECMP_BASE);
    a.sd(Gpr::T2, Gpr::T1, 0);
}

// ---------------------------------------------------------------------
// timer preemption + the scheduler workload
// ---------------------------------------------------------------------

/// Retired-instruction count of the single-hart scheduler: pinned so a
/// change in interrupt timing, tick accounting, or codegen is loud.
/// (SLICES quanta of QUANTUM ticks each, plus handler and boot code.)
const SCHED_1CORE_RETIRED: u64 = 18_521;

#[test]
fn scheduler_preempts_and_completes_on_one_hart() {
    let (code, emu) = run_with_bus(&sched::scheduler_program(1), |_| {});
    assert_eq!(code, sched::EXIT_OK);
    let bus = bus_of(&emu).unwrap();
    assert_eq!(bus.uart.tx_string(), "OK\n");
    assert!(bus.denied.is_empty(), "no denied accesses: {:?}", bus.denied);
    println!("single-hart scheduler retired {}", emu.cpu.instret);
    assert_eq!(emu.cpu.instret, SCHED_1CORE_RETIRED);
}

#[test]
fn scheduler_identical_with_fastpath_off() {
    let mut emu = Emulator::new();
    emu.load(&sched::scheduler_program(1));
    emu.set_fastpath(false);
    attach_bus(&mut emu, 1);
    let code = emu.run(FUEL).expect("guest must halt");
    assert_eq!(code, sched::EXIT_OK);
    assert_eq!(emu.cpu.instret, SCHED_1CORE_RETIRED);
}

/// The scheduler's retired records — interrupt entries, MMIO loads and
/// stores, `wfi`, `mret` — come out the same whichever way they are
/// pulled: one-record `TraceSource::fill`s on the reference path and on
/// decoded blocks (one record, rewritten in place), block fills (which a
/// platform caps at one record) and `try_next` (copied out).
#[test]
fn scheduler_records_identical_through_every_step_driver() {
    use xt_emu::{DynInst, TraceEvent, TraceSource};
    let mk = |fast: bool| {
        let mut emu = Emulator::new();
        emu.load(&sched::scheduler_program(1));
        emu.set_fastpath(fast);
        attach_bus(&mut emu, 1);
        TraceSource::new(emu, FUEL)
    };
    let by_fill = |fast: bool, len: usize| {
        let mut trace = mk(fast);
        let mut recs = [DynInst::trap_entry(0, 0); 64];
        let mut got: Vec<DynInst> = Vec::new();
        loop {
            let n = trace.fill(&mut recs[..len]);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&recs[..n]);
        }
        assert_eq!(trace.exit_code, Some(sched::EXIT_OK), "fills of {len}");
        got
    };
    let want = by_fill(false, 1);
    let retired = want.iter().filter(|d| !d.trapped).count() as u64;
    assert_eq!(retired, SCHED_1CORE_RETIRED);
    assert!(want.iter().any(|d| d.trapped), "timer interrupts were taken");
    assert_eq!(by_fill(true, 1), want, "one-record fills, decoded blocks");
    assert_eq!(by_fill(true, 64), want, "block fills, decoded blocks");

    let mut by_value = Vec::new();
    let mut trace = mk(true);
    while by_value.len() <= want.len() {
        let TraceEvent::Inst(d) = trace.try_next() else { break };
        by_value.push(d);
    }
    assert_eq!(trace.exit_code, Some(sched::EXIT_OK));
    assert_eq!(by_value, want, "TraceSource::try_next");
}

/// The full engine-identity matrix for the supervisor workload: 1, 2,
/// and 4 cores, fast path on/off, 1, 2 and 4 worker threads (one thread
/// is the sequential oracle) — every configuration must agree
/// bit-for-bit on exit codes and per-core counters.
#[test]
fn scheduler_cluster_identical_across_engines() {
    for cores in [1usize, 2, 4] {
        let mk = |fast: bool| {
            let progs = sched::cluster_programs(cores);
            let mem_cfg = MemConfig {
                cores,
                ..MemConfig::default()
            };
            ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, FUEL)
                .with_interrupts()
                .with_fastpath(fast)
        };
        let baseline = mk(true).run_threads(1);
        for code in &baseline.exit_codes {
            assert_eq!(*code, Some(sched::EXIT_OK), "{cores} cores");
        }
        let variants = [
            mk(true).run_threads(4),
            mk(false).run_threads(1),
            mk(false).run_threads(4),
            mk(true).run_threads(2),
        ];
        for v in &variants {
            assert_eq!(v.exit_codes, baseline.exit_codes, "{cores} cores");
            assert_eq!(v.cores, baseline.cores, "{cores} cores");
            assert_eq!(v.mem, baseline.mem, "{cores} cores");
        }
    }
}

// ---------------------------------------------------------------------
// MSIP IPIs across the epoch barrier
// ---------------------------------------------------------------------

#[test]
fn msip_ipi_wakes_receivers_across_cluster() {
    for cores in [2usize, 4] {
        let progs = sched::cluster_programs(cores);
        let mem_cfg = MemConfig {
            cores,
            ..MemConfig::default()
        };
        let r = ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, FUEL)
            .with_interrupts()
            .run();
        for (i, code) in r.exit_codes.iter().enumerate() {
            assert_eq!(
                *code,
                Some(sched::EXIT_OK),
                "hart {i} of {cores} must see the IPI and halt"
            );
        }
    }
}

// ---------------------------------------------------------------------
// mtvec modes: vectored steers interrupts, never synchronous traps
// ---------------------------------------------------------------------

/// Direct-mode handler: exits with `100 * mcause[63] + mcause[7:0]`.
fn direct_mode_timer_program() -> Program {
    let mut a = Asm::new();
    let boot = a.new_label();
    a.jump(boot);
    let handler = a.pc();
    a.csrr(Gpr::T0, csr::MCAUSE);
    a.srli(Gpr::T1, Gpr::T0, 63);
    a.li(Gpr::T2, 100);
    a.mul(Gpr::T1, Gpr::T1, Gpr::T2);
    a.andi(Gpr::T0, Gpr::T0, 0xff);
    a.add(Gpr::A0, Gpr::T0, Gpr::T1);
    a.halt();
    a.bind(boot).unwrap();
    a.li(Gpr::T0, handler as i64); // mode bits 00 = direct
    a.csrw(csr::MTVEC, Gpr::T0);
    a.li(Gpr::T0, 1 << csr::irq::MTI);
    a.csrw(csr::MIE, Gpr::T0);
    a.li(Gpr::T0, csr::mstatus::MIE as i64);
    a.csrs(csr::MSTATUS, Gpr::T0);
    arm_timer(&mut a, 200);
    let spin = a.here();
    a.jump(spin);
    a.finish().unwrap()
}

/// Vectored-mode program: every slot exits with `200 + slot`; `ecall`
/// when `do_ecall`, else an armed timer.
fn vectored_program(do_ecall: bool) -> Program {
    let mut a = Asm::new();
    let boot = a.new_label();
    a.jump(boot);
    let stubs: Vec<xt_asm::Label> = (0..12).map(|_| a.new_label()).collect();
    let vec_base = a.pc();
    for s in &stubs {
        a.jump(*s);
    }
    for (i, s) in stubs.iter().enumerate() {
        a.bind(*s).unwrap();
        a.li(Gpr::A0, 200 + i as i64);
        a.halt();
    }
    a.bind(boot).unwrap();
    a.li(Gpr::T0, (vec_base | csr::mtvec::MODE_VECTORED) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    if do_ecall {
        a.ecall(); // synchronous: must land at base (slot 0), not base+4*11
    } else {
        a.li(Gpr::T0, 1 << csr::irq::MTI);
        a.csrw(csr::MIE, Gpr::T0);
        a.li(Gpr::T0, csr::mstatus::MIE as i64);
        a.csrs(csr::MSTATUS, Gpr::T0);
        arm_timer(&mut a, 200);
        let spin = a.here();
        a.jump(spin);
    }
    a.finish().unwrap()
}

#[test]
fn direct_mtvec_reports_interrupt_cause() {
    let (code, _) = run_with_bus(&direct_mode_timer_program(), |_| {});
    assert_eq!(code, 107, "mcause = INTERRUPT | MTI via the base handler");
}

#[test]
fn vectored_mtvec_steers_interrupt_to_cause_slot() {
    let (code, _) = run_with_bus(&vectored_program(false), |_| {});
    assert_eq!(code, 200 + 7, "timer interrupt lands at base + 4*MTI");
}

#[test]
fn vectored_mtvec_sends_sync_traps_to_base() {
    let (code, _) = run_with_bus(&vectored_program(true), |_| {});
    assert_eq!(code, 200, "ecall (mcause 11) must hit base, not slot 11");
}

// ---------------------------------------------------------------------
// WFI
// ---------------------------------------------------------------------

/// Arms the timer far ahead, WFIs with interrupts masked (wakeup needs
/// only `mip & mie`), then reports whether `mtime` reached the compare.
fn wfi_fast_forward_program(delta: i64) -> Program {
    let mut a = Asm::new();
    a.li(Gpr::T0, 1 << csr::irq::MTI);
    a.csrw(csr::MIE, Gpr::T0); // mie armed, mstatus.MIE stays 0
    arm_timer(&mut a, delta);
    a.la(Gpr::S2, CLINT_BASE + clint_map::MTIMECMP_BASE);
    a.ld(Gpr::S2, Gpr::S2, 0); // s2 = absolute compare value
    a.wfi();
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIME);
    a.ld(Gpr::T3, Gpr::T1, 0);
    let woke = a.new_label();
    a.bgeu(Gpr::T3, Gpr::S2, woke);
    a.li(Gpr::A0, 1); // fell through early
    a.halt();
    a.bind(woke).unwrap();
    a.li(Gpr::A0, 55);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn wfi_fast_forwards_to_the_armed_timer() {
    let (code, emu) = run_with_bus(&wfi_fast_forward_program(500_000), |_| {});
    assert_eq!(code, 55, "woke at or past the compare");
    assert!(
        emu.cpu.instret < 100,
        "the 500k-tick wait must not retire 500k instructions: {}",
        emu.cpu.instret
    );
}

#[test]
fn wfi_wakes_into_the_handler_when_enabled() {
    // same wait, but with mstatus.MIE set and a vector installed: the
    // wakeup is *taken*, landing in the slot-7 stub (exit 207)
    let mut a = Asm::new();
    let boot = a.new_label();
    a.jump(boot);
    let stubs: Vec<xt_asm::Label> = (0..12).map(|_| a.new_label()).collect();
    let vec_base = a.pc();
    for s in &stubs {
        a.jump(*s);
    }
    for (i, s) in stubs.iter().enumerate() {
        a.bind(*s).unwrap();
        a.li(Gpr::A0, 200 + i as i64);
        a.halt();
    }
    a.bind(boot).unwrap();
    a.li(Gpr::T0, (vec_base | csr::mtvec::MODE_VECTORED) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    a.li(Gpr::T0, 1 << csr::irq::MTI);
    a.csrw(csr::MIE, Gpr::T0);
    a.li(Gpr::T0, csr::mstatus::MIE as i64);
    a.csrs(csr::MSTATUS, Gpr::T0);
    arm_timer(&mut a, 100_000);
    a.wfi();
    a.li(Gpr::A0, 1); // must not run: interrupt fires first
    a.halt();
    let p = a.finish().unwrap();
    let (code, emu) = run_with_bus(&p, |_| {});
    assert_eq!(code, 207);
    assert!(emu.cpu.instret < 100, "no spin: {}", emu.cpu.instret);
}

// ---------------------------------------------------------------------
// PLIC claim/complete over MMIO, with priority/threshold/permission
// ---------------------------------------------------------------------

/// External-interrupt harness: the handler claims every source the PLIC
/// offers (accumulating ids in s2, 4 bits each), completes each, and the
/// main loop exits with s2 once s3 counts `expect` claims.
fn plic_claim_program(expect: i64) -> Program {
    let mut a = Asm::new();
    let boot = a.new_label();
    a.jump(boot);
    let stubs: Vec<xt_asm::Label> = (0..12).map(|_| a.new_label()).collect();
    let vec_base = a.pc();
    for s in &stubs {
        a.jump(*s);
    }
    let mei = stubs[csr::irq::MEI as usize];
    for (i, s) in stubs.iter().enumerate() {
        if i == csr::irq::MEI as usize {
            continue;
        }
        a.bind(*s).unwrap();
        a.li(Gpr::A0, 90 + i as i64);
        a.halt();
    }
    // MEI handler: claim, accumulate, complete, return
    a.bind(mei).unwrap();
    let claim = PLIC_BASE + plic_map::CONTEXT_BASE + plic_map::CLAIM_OFFSET;
    a.la(Gpr::T1, claim);
    a.lw(Gpr::T0, Gpr::T1, 0); // claim-on-read
    a.slli(Gpr::S2, Gpr::S2, 4);
    a.add(Gpr::S2, Gpr::S2, Gpr::T0);
    a.addi(Gpr::S3, Gpr::S3, 1);
    a.sw(Gpr::T0, Gpr::T1, 0); // complete-on-write
    a.mret();
    a.bind(boot).unwrap();
    a.li(Gpr::T0, (vec_base | csr::mtvec::MODE_VECTORED) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    // configure over MMIO: priorities 5->2 and 9->7, enables, threshold 1
    a.li(Gpr::T2, 2);
    a.la(Gpr::T1, PLIC_BASE + 5 * 4);
    a.sw(Gpr::T2, Gpr::T1, 0);
    a.li(Gpr::T2, 7);
    a.la(Gpr::T1, PLIC_BASE + 9 * 4);
    a.sw(Gpr::T2, Gpr::T1, 0);
    a.li(Gpr::T2, 1);
    a.la(Gpr::T1, PLIC_BASE + 3 * 4);
    a.sw(Gpr::T2, Gpr::T1, 0); // source 3: below threshold, must stay masked
    a.li(Gpr::T2, 7);
    a.la(Gpr::T1, PLIC_BASE + 10 * 4);
    a.sw(Gpr::T2, Gpr::T1, 0); // source 10: high priority, permission revoked
    a.li(Gpr::T2, (1 << 3) | (1 << 5) | (1 << 9) | (1 << 10));
    a.la(Gpr::T1, PLIC_BASE + plic_map::ENABLE_BASE);
    a.sw(Gpr::T2, Gpr::T1, 0);
    a.li(Gpr::T2, 1);
    a.la(Gpr::T1, PLIC_BASE + plic_map::CONTEXT_BASE);
    a.sw(Gpr::T2, Gpr::T1, 0); // threshold = 1
    a.li(Gpr::S2, 0);
    a.li(Gpr::S3, 0);
    a.li(Gpr::T0, 1 << csr::irq::MEI);
    a.csrw(csr::MIE, Gpr::T0);
    a.li(Gpr::T0, csr::mstatus::MIE as i64);
    a.csrs(csr::MSTATUS, Gpr::T0);
    let wait = a.here();
    a.wfi();
    a.li(Gpr::T0, expect);
    a.bne(Gpr::S3, Gpr::T0, wait);
    a.mv(Gpr::A0, Gpr::S2);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn plic_claims_in_priority_order_respecting_threshold_and_permission() {
    let (code, emu) = run_with_bus(&plic_claim_program(2), |bus| {
        // the guest revokes nothing itself; the host partitions source
        // 10 away from context 0 (XT permission extension) and raises
        // all four lines before the guest starts
        bus.plic.revoke_permission(0, 10);
        for s in [3, 5, 9, 10] {
            bus.plic.raise(s);
        }
    });
    // claim order: 9 (prio 7) then 5 (prio 2); 3 is under the
    // threshold, 10 is permission-revoked — neither may ever arrive
    assert_eq!(code, 0x95);
    let bus = bus_of(&emu).unwrap();
    assert!(bus.plic.is_pending(3), "source 3 stays pending, masked");
    assert!(bus.plic.is_pending(10), "source 10 stays pending, revoked");
}

// ---------------------------------------------------------------------
// device-bus denial diagnostics from guest code
// ---------------------------------------------------------------------

#[test]
fn denied_device_access_traps_and_is_diagnosed() {
    // a 64-bit store at msip[0] must raise a store access fault (cause
    // 7) into the guest's handler, and the bus must record the denial
    let mut a = Asm::new();
    let boot = a.new_label();
    a.jump(boot);
    let handler = a.pc();
    a.csrr(Gpr::A0, csr::MCAUSE);
    a.halt();
    a.bind(boot).unwrap();
    a.li(Gpr::T0, handler as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    a.li(Gpr::T2, 1);
    a.la(Gpr::T1, CLINT_BASE + clint_map::MSIP_BASE);
    a.sd(Gpr::T2, Gpr::T1, 0); // wrong width: denied
    a.li(Gpr::A0, 1);
    a.halt();
    let p = a.finish().unwrap();
    let (code, emu) = run_with_bus(&p, |_| {});
    assert_eq!(code, 7, "store access fault");
    let bus = bus_of(&emu).unwrap();
    assert_eq!(bus.denied.len(), 1);
    assert_eq!(bus.denied[0].pa, CLINT_BASE);
    assert_eq!(bus.denied[0].size, 8);
    assert!(bus.denied[0].is_write);
    assert_eq!(bus.denied[0].window, "clint");
}

// ---------------------------------------------------------------------
// host-side bus sanity via the downcast helpers
// ---------------------------------------------------------------------

#[test]
fn bus_of_mut_reaches_devices_before_and_after_a_run() {
    let mut a = Asm::new();
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIME);
    a.ld(Gpr::A0, Gpr::T1, 0);
    a.halt();
    let p = a.finish().unwrap();
    let mut emu = Emulator::new();
    emu.load(&p);
    attach_bus(&mut emu, 1);
    bus_of_mut(&mut emu).unwrap().clint.set_mtime(4000);
    let code = emu.run(FUEL).unwrap();
    // mtime advances with each retired instruction, so the guest reads
    // the host-set base plus the handful of instructions before the load
    assert!(
        (4000..4020).contains(&code),
        "guest read the host-set mtime: {code}"
    );
    assert!(bus_of(&emu).unwrap().clint.mtime() >= 4000);
}
