//! `MmioBus` — the synchronous, strongly-ordered device bus.
//!
//! The bus owns the platform devices and routes physical addresses
//! through fixed, disjoint windows (the map lives in
//! [`xt_emu::platform`] so guest programs share it):
//!
//! | window | base | device |
//! |---|---|---|
//! | CLINT | `0x0200_0000` | [`Clint`] — msip / mtimecmp / mtime |
//! | PLIC  | `0x0C00_0000` | [`Plic`] — priorities, claim/complete |
//! | UART  | `0x1000_0000` | [`Uart`] — TX-only console |
//!
//! Every access is synchronous and strongly ordered: the device observes it
//! before the next instruction executes, in program order — there is no
//! posted-write buffering, which is what makes interrupt delivery a
//! deterministic function of the retired-instruction stream
//! (docs/INTERRUPTS.md).
//!
//! A denied access (bad width, unmapped hole, read-only register) makes
//! the guest take a load/store access fault *and* is recorded in
//! [`MmioBus::denied`] with the window name — the diagnostics that turn
//! "my IPI vanished" into "64-bit store at CLINT+0x0 denied".
//!
//! The bus implements [`xt_emu::Platform`]; attach with
//! [`attach_bus`] and inspect after a run with [`bus_of`].

use crate::clint::Clint;
use crate::plic::Plic;
use crate::uart::Uart;
use xt_emu::platform::{
    CLINT_BASE, CLINT_SIZE, PLIC_BASE, PLIC_SIZE, UART_BASE, UART_SIZE,
};
use xt_emu::{BusFault, Emulator, IrqLines, Platform};

/// Default number of PLIC sources on the bus (ids 1..=31).
pub const DEFAULT_PLIC_SOURCES: usize = 31;

/// Ceiling on retained denied-access diagnostics (a guest wedged in a
/// faulting loop must not grow the log unboundedly).
pub const MAX_DENIED: usize = 64;

/// A device as the bus sees it: width-checked reads and writes at
/// window-relative offsets.
pub trait MmioDevice: std::fmt::Debug + Send {
    /// Reads `size` bytes at `offset` within the device window.
    ///
    /// # Errors
    ///
    /// [`BusFault`] for a denied access (width, alignment, unmapped).
    fn read(&mut self, offset: u64, size: usize) -> Result<u64, BusFault>;

    /// Writes the low `size` bytes of `value` at `offset`.
    ///
    /// # Errors
    ///
    /// [`BusFault`] for a denied access.
    fn write(&mut self, offset: u64, value: u64, size: usize) -> Result<(), BusFault>;
}

/// One denied device access, for diagnostics.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct DeniedAccess {
    /// Faulting physical address.
    pub pa: u64,
    /// Access size in bytes.
    pub size: usize,
    /// Store (true) or load (false).
    pub is_write: bool,
    /// Name of the window hit.
    pub window: &'static str,
}

/// The standard XT-910 device bus: CLINT + PLIC + UART. See the
/// [module docs](self).
#[derive(Debug)]
pub struct MmioBus {
    /// The core-local interruptor (timer + software interrupts).
    pub clint: Clint,
    /// The platform interrupt controller (context = hart).
    pub plic: Plic,
    /// The console UART.
    pub uart: Uart,
    /// Denied-access diagnostics, oldest first (capped at
    /// [`MAX_DENIED`]; later denials only bump
    /// [`MmioBus::denied_dropped`]).
    pub denied: Vec<DeniedAccess>,
    /// Denied accesses dropped after the log filled — the log plus this
    /// counter account for every denial.
    pub denied_dropped: u64,
    harts: usize,
}

impl MmioBus {
    /// Creates the standard bus for `harts` harts (PLIC contexts map
    /// 1:1 to harts; [`DEFAULT_PLIC_SOURCES`] sources).
    pub fn new(harts: usize) -> Self {
        MmioBus {
            clint: Clint::new(harts),
            plic: Plic::new(DEFAULT_PLIC_SOURCES, harts),
            uart: Uart::new(),
            denied: Vec::new(),
            denied_dropped: 0,
            harts,
        }
    }

    /// Number of harts the bus serves.
    pub fn harts(&self) -> usize {
        self.harts
    }

    /// Routes `pa` to (window name, window base, device).
    fn route(&mut self, pa: u64) -> Option<(&'static str, u64, &mut dyn MmioDevice)> {
        if (CLINT_BASE..CLINT_BASE + CLINT_SIZE).contains(&pa) {
            return Some(("clint", CLINT_BASE, &mut self.clint));
        }
        if (PLIC_BASE..PLIC_BASE + PLIC_SIZE).contains(&pa) {
            return Some(("plic", PLIC_BASE, &mut self.plic));
        }
        if (UART_BASE..UART_BASE + UART_SIZE).contains(&pa) {
            return Some(("uart", UART_BASE, &mut self.uart));
        }
        None
    }

    fn record_denied(&mut self, pa: u64, size: usize, is_write: bool, window: &'static str) {
        if self.denied.len() < MAX_DENIED {
            self.denied.push(DeniedAccess {
                pa,
                size,
                is_write,
                window,
            });
        } else {
            self.denied_dropped += 1;
        }
    }
}

/// Bus snapshots capture the three devices and the denied-access log.
impl xt_snapshot::SnapshotState for MmioBus {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.expect("bus hart count", self.harts)?;
        self.clint.transfer(s)?;
        self.plic.transfer(s)?;
        self.uart.transfer(s)?;
        // 8 pa + 8 size + 1 is_write + ≥2 window name
        s.vec(&mut self.denied, 19, |s, a| {
            s.u64(&mut a.pa)?;
            s.usize(&mut a.size)?;
            s.bool(&mut a.is_write)?;
            // window names round-trip through the known static names
            let mut name = a.window.to_string();
            s.string(&mut name)?;
            a.window = ["clint", "plic", "uart"]
                .into_iter()
                .find(|n| *n == name)
                .ok_or(xt_snapshot::SnapshotError::Corrupt {
                    what: "denied-access window name",
                })?;
            Ok(())
        })?;
        s.check(self.denied.len() <= MAX_DENIED, "denied-access log length")?;
        s.u64(&mut self.denied_dropped)
    }
}

impl Platform for MmioBus {
    fn contains(&self, pa: u64) -> bool {
        (CLINT_BASE..CLINT_BASE + CLINT_SIZE).contains(&pa)
            || (PLIC_BASE..PLIC_BASE + PLIC_SIZE).contains(&pa)
            || (UART_BASE..UART_BASE + UART_SIZE).contains(&pa)
    }

    fn read(&mut self, pa: u64, size: usize) -> Result<u64, BusFault> {
        let (name, base, dev) = self.route(pa).ok_or(BusFault)?;
        match dev.read(pa - base, size) {
            Ok(v) => Ok(v),
            Err(f) => {
                self.record_denied(pa, size, false, name);
                Err(f)
            }
        }
    }

    fn write(&mut self, pa: u64, val: u64, size: usize) -> Result<(), BusFault> {
        let (name, base, dev) = self.route(pa).ok_or(BusFault)?;
        match dev.write(pa - base, val, size) {
            Ok(()) => Ok(()),
            Err(f) => {
                self.record_denied(pa, size, true, name);
                Err(f)
            }
        }
    }

    fn tick(&mut self, ticks: u64) {
        self.clint.tick(ticks);
    }

    fn irq_lines(&self, hart: u64) -> IrqLines {
        let h = hart as usize;
        IrqLines {
            msip: self.clint.software_pending(h),
            mtip: self.clint.timer_pending(h),
            meip: h < self.plic.contexts() && self.plic.pending_for(h),
        }
    }

    fn ticks_to_timer(&self, hart: u64) -> Option<u64> {
        self.clint.ticks_to_timer(hart as usize)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Attaches a standard bus for `harts` harts to `emu` and returns a
/// mutable borrow of it (configure devices, then run).
pub fn attach_bus(emu: &mut Emulator, harts: usize) -> &mut MmioBus {
    emu.attach_platform(Box::new(MmioBus::new(harts)));
    bus_of_mut(emu).expect("just attached")
}

/// The emulator's attached [`MmioBus`], if any.
pub fn bus_of(emu: &Emulator) -> Option<&MmioBus> {
    emu.platform
        .as_ref()
        .and_then(|p| p.as_any().downcast_ref::<MmioBus>())
}

/// Mutable access to the emulator's attached [`MmioBus`], if any.
pub fn bus_of_mut(emu: &mut Emulator) -> Option<&mut MmioBus> {
    emu.platform
        .as_mut()
        .and_then(|p| p.as_any_mut().downcast_mut::<MmioBus>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_emu::platform::{clint_map, plic_map};

    #[test]
    fn routes_to_standard_windows() {
        let mut bus = MmioBus::new(2);
        // CLINT msip[1]
        bus.write(CLINT_BASE + clint_map::MSIP_BASE + 4, 1, 4).unwrap();
        assert!(bus.clint.software_pending(1));
        assert!(bus.irq_lines(1).msip);
        // UART TX
        bus.write(UART_BASE, b'x' as u64, 1).unwrap();
        assert_eq!(bus.uart.tx, b"x");
        // PLIC priority for source 3
        bus.write(PLIC_BASE + 3 * 4, 5, 4).unwrap();
        assert_eq!(bus.plic.priority(3), 5);
    }

    #[test]
    fn plic_claim_complete_over_mmio() {
        let mut bus = MmioBus::new(1);
        bus.write(PLIC_BASE + 7 * 4, 3, 4).unwrap(); // priority[7] = 3
        bus.write(PLIC_BASE + plic_map::ENABLE_BASE, 1 << 7, 4).unwrap();
        bus.plic.raise(7);
        assert!(bus.irq_lines(0).meip);
        // pending word shows the raised line
        assert_eq!(bus.read(PLIC_BASE + plic_map::PENDING_BASE, 4).unwrap(), 1 << 7);
        // claim by read, line drops, complete by write
        let claim_addr = PLIC_BASE + plic_map::CONTEXT_BASE + plic_map::CLAIM_OFFSET;
        assert_eq!(bus.read(claim_addr, 4).unwrap(), 7);
        assert!(!bus.irq_lines(0).meip);
        bus.write(claim_addr, 7, 4).unwrap();
    }

    #[test]
    fn denied_accesses_are_diagnosed() {
        let mut bus = MmioBus::new(1);
        assert_eq!(bus.write(CLINT_BASE + clint_map::MSIP_BASE, 1, 8), Err(BusFault));
        assert_eq!(bus.read(PLIC_BASE + 2, 4), Err(BusFault)); // misaligned
        assert_eq!(
            bus.denied,
            vec![
                DeniedAccess {
                    pa: CLINT_BASE,
                    size: 8,
                    is_write: true,
                    window: "clint"
                },
                DeniedAccess {
                    pa: PLIC_BASE + 2,
                    size: 4,
                    is_write: false,
                    window: "plic"
                },
            ]
        );
    }

    #[test]
    fn denied_log_caps_and_counts_drops() {
        let mut bus = MmioBus::new(1);
        // a guest wedged in a faulting loop: way more denials than the cap
        for _ in 0..(MAX_DENIED + 50) {
            assert_eq!(bus.read(PLIC_BASE + 2, 4), Err(BusFault));
        }
        assert_eq!(bus.denied.len(), MAX_DENIED, "log capped");
        assert_eq!(bus.denied_dropped, 50, "overflow denials counted");
        // snapshot round-trips the drop counter
        use xt_snapshot::SnapshotState;
        let mut e = xt_snapshot::Enc::new();
        bus.save(&mut e);
        let bytes = e.into_bytes();
        let mut r = MmioBus::new(1);
        let mut d = xt_snapshot::Dec::new(&bytes);
        r.restore(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(r.denied.len(), MAX_DENIED);
        assert_eq!(r.denied_dropped, 50);
    }

    /// A frame is outside input: a denied-access log longer than the
    /// bus ever keeps is refused, not restored past its cap.
    #[test]
    fn restore_refuses_a_denied_log_over_the_cap() {
        use xt_snapshot::SnapshotState;
        let mut forged = MmioBus::new(1);
        let denial = DeniedAccess {
            pa: PLIC_BASE + 2,
            size: 4,
            is_write: false,
            window: "plic",
        };
        forged.denied = vec![denial; MAX_DENIED + 1];
        let mut e = xt_snapshot::Enc::new();
        forged.save(&mut e);
        let got = MmioBus::new(1).restore(&mut xt_snapshot::Dec::new(e.bytes()));
        let want = xt_snapshot::SnapshotError::Corrupt {
            what: "denied-access log length",
        };
        assert_eq!(got, Err(want));
    }
}
