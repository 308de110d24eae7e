//! A supervisor workload: preemptive round-robin scheduler driven by
//! CLINT timer interrupts, with MSIP inter-core IPIs (docs/INTERRUPTS.md).
//!
//! Hart 0 runs a machine-mode kernel that time-slices [`TASKS`]
//! cooperating-free user-mode tasks. Each task is an infinite counter
//! loop owning only `s2`/`s3`; the vectored machine timer interrupt
//! saves the preempted task's context into its TCB, rotates round-robin,
//! re-arms `mtimecmp = mtime + QUANTUM`, and `mret`s into the next task.
//! After [`SLICES`] quanta the kernel verifies every task made progress,
//! prints a tag on the UART, sends an MSIP IPI to every other hart, and
//! exits with [`EXIT_OK`].
//!
//! Harts 1..n run the receiver image: machine mode, `mie.MSIE` armed,
//! parked in a WFI loop until the software interrupt lands (in the
//! cluster the IPI rides the buffered-store path and arrives at an epoch
//! barrier), whose handler clears its own `msip` and flags completion.
//!
//! Everything about the run — preemption points, context-switch count,
//! IPI arrival — is a function of the architectural instruction streams,
//! so exit codes *and retired-instruction counts* are bit-identical
//! across fast path on/off and any host thread count.
//! `tests/interrupts.rs` pins them.

use xt_asm::{Asm, Program};
use xt_emu::platform::{clint_map, CLINT_BASE, UART_BASE};
use xt_isa::csr;
use xt_isa::reg::Gpr;

/// User-mode tasks scheduled on hart 0.
pub const TASKS: usize = 3;
/// Timer quantum in `mtime` ticks (= retired instructions).
pub const QUANTUM: u64 = 1500;
/// Total quanta before the kernel shuts down.
pub const SLICES: u64 = 12;
/// Exit code for a verified run (every hart).
pub const EXIT_OK: u64 = 42;
/// Exit code when a task starved (scheduler bug).
pub const EXIT_STARVED: u64 = 1;
/// Exit code for an interrupt that hit an unexpected vector slot.
pub const EXIT_SPURIOUS: u64 = 99;

/// Vector-table slots (one 4-byte jump per `mcause` code, 0..=11).
const VEC_SLOTS: u64 = 12;

/// Emits the 12-entry vectored trap table at the current pc and returns
/// its base address (to be installed as `mtvec | MODE_VECTORED`).
/// `handlers[cause]` supplies the target for that slot; every other
/// slot — including slot 0, where synchronous traps land in direct
/// fashion — jumps to `fatal`.
fn vector_table(
    a: &mut Asm,
    fatal: xt_asm::Label,
    handlers: &[(u64, xt_asm::Label)],
) -> u64 {
    let base = a.pc();
    for cause in 0..VEC_SLOTS {
        match handlers.iter().find(|(c, _)| *c == cause) {
            Some((_, l)) => a.jump(*l),
            None => a.jump(fatal),
        };
    }
    base
}

/// The hart-0 kernel image for a cluster of `harts` harts.
///
/// # Panics
///
/// Panics only on an internal assembler error.
pub fn scheduler_program(harts: usize) -> Program {
    assert!(harts >= 1);
    let mut a = Asm::new();

    // kernel data
    let counters = a.data_zeros("counters", 8 * TASKS);
    let tcbs = a.data_zeros("tcbs", 24 * TASKS); // {pc, s2, s3} each
    let cur = a.data_u64("cur", &[0]);
    let slices = a.data_u64("slices", &[SLICES]);

    let boot = a.new_label();
    let fatal = a.new_label();
    let mti = a.new_label();
    a.jump(boot);

    a.bind(fatal).unwrap();
    a.li(Gpr::A0, EXIT_SPURIOUS as i64);
    a.halt();

    let vec_base = vector_table(&mut a, fatal, &[(csr::irq::MTI, mti)]);

    // the task body: all tasks share this code, parameterized by
    // s2 = &counter[task]; they own no other architectural state
    let task_entry = a.pc();
    let task_loop = a.here();
    a.ld(Gpr::S3, Gpr::S2, 0);
    a.addi(Gpr::S3, Gpr::S3, 1);
    a.sd(Gpr::S3, Gpr::S2, 0);
    a.jump(task_loop);

    // machine timer interrupt: context switch
    a.bind(mti).unwrap();
    // save {mepc, s2, s3} into tcbs[cur]
    a.la(Gpr::T2, cur);
    a.ld(Gpr::T3, Gpr::T2, 0);
    a.li(Gpr::T4, 24);
    a.mul(Gpr::T5, Gpr::T3, Gpr::T4);
    a.la(Gpr::T1, tcbs);
    a.add(Gpr::T1, Gpr::T1, Gpr::T5);
    a.csrr(Gpr::T0, csr::MEPC);
    a.sd(Gpr::T0, Gpr::T1, 0);
    a.sd(Gpr::S2, Gpr::T1, 8);
    a.sd(Gpr::S3, Gpr::T1, 16);
    // cur = (cur + 1) % TASKS
    let no_wrap = a.new_label();
    a.addi(Gpr::T3, Gpr::T3, 1);
    a.li(Gpr::T4, TASKS as i64);
    a.bne(Gpr::T3, Gpr::T4, no_wrap);
    a.li(Gpr::T3, 0);
    a.bind(no_wrap).unwrap();
    a.sd(Gpr::T3, Gpr::T2, 0);
    // slices -= 1; 0 => shut down
    let finish = a.new_label();
    a.la(Gpr::T2, slices);
    a.ld(Gpr::T4, Gpr::T2, 0);
    a.addi(Gpr::T4, Gpr::T4, -1);
    a.sd(Gpr::T4, Gpr::T2, 0);
    a.beqz(Gpr::T4, finish);
    // restore {mepc, s2, s3} from tcbs[cur]
    a.li(Gpr::T4, 24);
    a.mul(Gpr::T5, Gpr::T3, Gpr::T4);
    a.la(Gpr::T1, tcbs);
    a.add(Gpr::T1, Gpr::T1, Gpr::T5);
    a.ld(Gpr::T0, Gpr::T1, 0);
    a.csrw(csr::MEPC, Gpr::T0);
    a.ld(Gpr::S2, Gpr::T1, 8);
    a.ld(Gpr::S3, Gpr::T1, 16);
    // re-arm the quantum: mtimecmp[0] = mtime + QUANTUM (clears MTIP)
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIME);
    a.ld(Gpr::T2, Gpr::T1, 0);
    a.li(Gpr::T4, QUANTUM as i64);
    a.add(Gpr::T2, Gpr::T2, Gpr::T4);
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIMECMP_BASE);
    a.sd(Gpr::T2, Gpr::T1, 0);
    a.mret();

    // shutdown: verify progress, print, fan out IPIs, exit
    a.bind(finish).unwrap();
    let starved = a.new_label();
    let check = a.new_label();
    a.la(Gpr::T1, counters);
    a.li(Gpr::T2, TASKS as i64);
    a.bind(check).unwrap();
    a.ld(Gpr::T3, Gpr::T1, 0);
    a.beqz(Gpr::T3, starved);
    a.addi(Gpr::T1, Gpr::T1, 8);
    a.addi(Gpr::T2, Gpr::T2, -1);
    a.bnez(Gpr::T2, check);
    a.la(Gpr::T1, UART_BASE);
    for b in b"OK\n" {
        a.li(Gpr::T2, *b as i64);
        a.sb(Gpr::T2, Gpr::T1, 0);
    }
    a.li(Gpr::T2, 1);
    for h in 1..harts {
        a.la(Gpr::T1, CLINT_BASE + clint_map::MSIP_BASE + 4 * h as u64);
        a.sw(Gpr::T2, Gpr::T1, 0);
    }
    a.li(Gpr::A0, EXIT_OK as i64);
    a.halt();
    a.bind(starved).unwrap();
    a.li(Gpr::A0, EXIT_STARVED as i64);
    a.halt();

    // boot: install the vector, build the TCBs, arm the quantum,
    // drop into task 0 in user mode
    a.bind(boot).unwrap();
    a.li(Gpr::T0, (vec_base | csr::mtvec::MODE_VECTORED) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    for i in 0..TASKS {
        a.la(Gpr::T1, tcbs + 24 * i as u64);
        a.li(Gpr::T0, task_entry as i64);
        a.sd(Gpr::T0, Gpr::T1, 0);
        a.la(Gpr::T0, counters + 8 * i as u64);
        a.sd(Gpr::T0, Gpr::T1, 8);
        a.sd(Gpr::ZERO, Gpr::T1, 16);
    }
    a.li(Gpr::T0, 1 << csr::irq::MTI);
    a.csrw(csr::MIE, Gpr::T0);
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIME);
    a.ld(Gpr::T2, Gpr::T1, 0);
    a.li(Gpr::T3, QUANTUM as i64);
    a.add(Gpr::T2, Gpr::T2, Gpr::T3);
    a.la(Gpr::T1, CLINT_BASE + clint_map::MTIMECMP_BASE);
    a.sd(Gpr::T2, Gpr::T1, 0);
    // dispatch task 0: mepc = entry, MPP = U, MPIE = 1
    a.la(Gpr::S2, counters);
    a.li(Gpr::S3, 0);
    a.li(Gpr::T0, task_entry as i64);
    a.csrw(csr::MEPC, Gpr::T0);
    a.li(Gpr::T0, csr::mstatus::MPP_MASK as i64);
    a.csrc(csr::MSTATUS, Gpr::T0);
    a.li(Gpr::T0, csr::mstatus::MPIE as i64);
    a.csrs(csr::MSTATUS, Gpr::T0);
    a.mret();

    a.finish().unwrap()
}

/// The receiver image for hart `hart` (1-based in a cluster): WFI-waits
/// for the kernel's MSIP IPI. The data segment is placed per hart so
/// cross-core store propagation cannot alias another hart's flag.
///
/// # Panics
///
/// Panics only on an internal assembler error.
pub fn receiver_program(hart: usize) -> Program {
    assert!(hart >= 1);
    let mut a = Asm::new().with_data_base(0x8200_0000 + hart as u64 * 0x0010_0000);
    let flag = a.data_u64("flag", &[0]);

    let boot = a.new_label();
    let fatal = a.new_label();
    let msi = a.new_label();
    a.jump(boot);

    a.bind(fatal).unwrap();
    a.li(Gpr::A0, EXIT_SPURIOUS as i64);
    a.halt();

    let vec_base = vector_table(&mut a, fatal, &[(csr::irq::MSI, msi)]);

    // machine software interrupt: acknowledge (clear own msip) and flag
    a.bind(msi).unwrap();
    a.csrr(Gpr::T0, csr::MHARTID);
    a.slli(Gpr::T0, Gpr::T0, 2);
    a.la(Gpr::T1, CLINT_BASE + clint_map::MSIP_BASE);
    a.add(Gpr::T1, Gpr::T1, Gpr::T0);
    a.sw(Gpr::ZERO, Gpr::T1, 0);
    a.la(Gpr::T1, flag);
    a.li(Gpr::T2, 1);
    a.sd(Gpr::T2, Gpr::T1, 0);
    a.mret();

    a.bind(boot).unwrap();
    a.li(Gpr::T0, (vec_base | csr::mtvec::MODE_VECTORED) as i64);
    a.csrw(csr::MTVEC, Gpr::T0);
    a.li(Gpr::T0, 1 << csr::irq::MSI);
    a.csrw(csr::MIE, Gpr::T0);
    a.li(Gpr::T0, csr::mstatus::MIE as i64);
    a.csrs(csr::MSTATUS, Gpr::T0);
    a.la(Gpr::S2, flag);
    let wait = a.here();
    a.wfi();
    a.ld(Gpr::T0, Gpr::S2, 0);
    a.beqz(Gpr::T0, wait);
    a.li(Gpr::A0, EXIT_OK as i64);
    a.halt();

    a.finish().unwrap()
}

/// The full cluster image set: hart 0 runs the scheduler kernel, harts
/// 1..n the IPI receivers.
///
/// # Panics
///
/// Panics only on an internal assembler error.
pub fn cluster_programs(harts: usize) -> Vec<Program> {
    assert!((1..=4).contains(&harts), "the cluster is 1-4 cores");
    (0..harts)
        .map(|h| {
            if h == 0 {
                scheduler_program(harts)
            } else {
                receiver_program(h)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_emu::Emulator;

    // The workloads crate deliberately depends on `xt-emu` only; the
    // single-hart smoke below therefore builds its platform through the
    // emulator-facing trait with a minimal timer, and the full
    // CLINT/PLIC cluster runs live in the root `tests/interrupts.rs`.
    #[derive(Debug)]
    struct TimerOnly {
        mtime: u64,
        mtimecmp: u64,
        msip: Vec<bool>,
        uart: Vec<u8>,
    }

    impl TimerOnly {
        fn new() -> Self {
            TimerOnly {
                mtime: 0,
                mtimecmp: u64::MAX,
                msip: vec![false; 4],
                uart: Vec::new(),
            }
        }
    }

    impl xt_emu::Platform for TimerOnly {
        fn contains(&self, pa: u64) -> bool {
            (CLINT_BASE..CLINT_BASE + xt_emu::platform::CLINT_SIZE).contains(&pa)
                || (UART_BASE..UART_BASE + xt_emu::platform::UART_SIZE).contains(&pa)
        }
        fn read(&mut self, pa: u64, _size: usize) -> Result<u64, xt_emu::BusFault> {
            match pa - CLINT_BASE {
                clint_map::MTIME => Ok(self.mtime),
                o if o == clint_map::MTIMECMP_BASE => Ok(self.mtimecmp),
                _ => Err(xt_emu::BusFault),
            }
        }
        fn write(&mut self, pa: u64, val: u64, size: usize) -> Result<(), xt_emu::BusFault> {
            if pa == UART_BASE && size == 1 {
                self.uart.push(val as u8);
                return Ok(());
            }
            match pa - CLINT_BASE {
                o if o == clint_map::MTIMECMP_BASE => {
                    self.mtimecmp = val;
                    Ok(())
                }
                o if (clint_map::MSIP_BASE..clint_map::MSIP_BASE + 16).contains(&o)
                    && size == 4 =>
                {
                    self.msip[(o / 4) as usize] = val & 1 != 0;
                    Ok(())
                }
                _ => Err(xt_emu::BusFault),
            }
        }
        fn tick(&mut self, t: u64) {
            self.mtime += t;
        }
        fn irq_lines(&self, hart: u64) -> xt_emu::IrqLines {
            xt_emu::IrqLines {
                msip: self.msip[hart as usize],
                mtip: self.mtime >= self.mtimecmp,
                meip: false,
            }
        }
        fn ticks_to_timer(&self, _hart: u64) -> Option<u64> {
            if self.mtimecmp == u64::MAX || self.mtime >= self.mtimecmp {
                None
            } else {
                Some(self.mtimecmp - self.mtime)
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn single_hart_scheduler_runs_all_tasks() {
        let mut emu = Emulator::new();
        emu.load(&scheduler_program(1));
        emu.attach_platform(Box::new(TimerOnly::new()));
        let code = emu.run(5_000_000).expect("scheduler must halt cleanly");
        assert_eq!(code, EXIT_OK, "all tasks made progress");
        let p = emu.platform.as_ref().unwrap();
        let t = p.as_any().downcast_ref::<TimerOnly>().unwrap();
        assert_eq!(t.uart, b"OK\n");
    }

    #[test]
    fn scheduler_preempts_roughly_per_quantum() {
        let mut emu = Emulator::new();
        emu.load(&scheduler_program(1));
        emu.attach_platform(Box::new(TimerOnly::new()));
        emu.run(5_000_000).unwrap();
        // SLICES quanta of QUANTUM ticks plus handler/boot overhead
        assert!(emu.cpu.instret >= SLICES * QUANTUM);
        assert!(emu.cpu.instret < SLICES * QUANTUM * 2, "quantum respected");
    }
}
