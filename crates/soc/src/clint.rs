//! CLINT — the core-local interruptor (software and timer interrupts).
//!
//! Standard register map (as in the RISC-V privileged platform), with
//! offsets shared with guest programs via [`xt_emu::platform::clint_map`]:
//!
//! * `msip[hart]`    at `0x0000 + 4*hart` — software interrupt pending
//! * `mtimecmp[hart]` at `0x4000 + 8*hart` — timer compare
//! * `mtime`         at `0xBFF8` — free-running timer
//!
//! Access widths are architectural: `msip` registers are 32-bit and
//! reject 64-bit accesses (a 64-bit store at `msip[i]` would otherwise
//! alias `msip[i+1]` — the IPI-to-the-wrong-hart bug), while
//! `mtimecmp`/`mtime` accept aligned 64-bit accesses or 32-bit halves.
//! Denied accesses surface as bus faults (guest access faults).

use crate::bus::MmioDevice;
use xt_emu::platform::clint_map::{MSIP_BASE, MTIMECMP_BASE, MTIME};
use xt_emu::BusFault;

/// The CLINT model for up to `harts` harts.
#[derive(Clone, Debug)]
pub struct Clint {
    msip: Vec<bool>,
    mtimecmp: Vec<u64>,
    mtime: u64,
}

/// Merges a 32-bit half-write into a 64-bit register (`offset8` is the
/// byte offset within the register: 0 = low half, 4 = high half).
fn merge_half(cur: u64, offset8: u64, value: u64) -> u64 {
    if offset8 == 0 {
        (cur & 0xffff_ffff_0000_0000) | (value & 0xffff_ffff)
    } else {
        (cur & 0xffff_ffff) | (value << 32)
    }
}

/// Extracts the 32-bit half of a 64-bit register selected by `offset8`.
fn read_half(cur: u64, offset8: u64) -> u64 {
    if offset8 == 0 {
        cur & 0xffff_ffff
    } else {
        cur >> 32
    }
}

impl Clint {
    /// Creates a CLINT for `harts` harts with all compares at max
    /// (disarmed; see [`Clint::ticks_to_timer`]).
    pub fn new(harts: usize) -> Self {
        Clint {
            msip: vec![false; harts],
            mtimecmp: vec![u64::MAX; harts],
            mtime: 0,
        }
    }

    /// Advances the timer by `ticks`.
    pub fn tick(&mut self, ticks: u64) {
        self.mtime = self.mtime.wrapping_add(ticks);
    }

    /// Current `mtime`.
    pub fn mtime(&self) -> u64 {
        self.mtime
    }

    /// Overwrites `mtime` (cluster barrier resync).
    pub fn set_mtime(&mut self, v: u64) {
        self.mtime = v;
    }

    /// Software-interrupt pending for `hart` (MSIP bit).
    pub fn software_pending(&self, hart: usize) -> bool {
        self.msip.get(hart).copied().unwrap_or(false)
    }

    /// Timer-interrupt pending for `hart` (`mtime >= mtimecmp`).
    pub fn timer_pending(&self, hart: usize) -> bool {
        self.mtimecmp
            .get(hart)
            .is_some_and(|&cmp| self.mtime >= cmp)
    }

    /// Ticks until `hart`'s timer interrupt asserts: `Some(n)` when the
    /// compare is armed `n > 0` ticks ahead, `None` when already pending
    /// or disarmed (`mtimecmp == u64::MAX`). Drives WFI fast-forward.
    pub fn ticks_to_timer(&self, hart: usize) -> Option<u64> {
        let cmp = *self.mtimecmp.get(hart)?;
        if cmp == u64::MAX || self.mtime >= cmp {
            None
        } else {
            Some(cmp - self.mtime)
        }
    }

    /// Locates the 64-bit timer register (compare or mtime) containing
    /// `offset`, returning (register base offset, a mutable-less view is
    /// handled by callers). `None` when `offset` maps to no register.
    fn timer_reg(&self, offset: u64) -> Option<(u64, u64)> {
        if (MTIME..MTIME + 8).contains(&offset) {
            return Some((MTIME, self.mtime));
        }
        if (MTIMECMP_BASE..MTIME).contains(&offset) {
            let hart = ((offset - MTIMECMP_BASE) / 8) as usize;
            let base = MTIMECMP_BASE + 8 * hart as u64;
            return self.mtimecmp.get(hart).map(|&v| (base, v));
        }
        None
    }

    /// Width-checked MMIO read at `offset` within the CLINT region.
    ///
    /// # Errors
    ///
    /// [`BusFault`] on a bad width, misalignment, or unmapped offset.
    pub fn read(&self, offset: u64, size: usize) -> Result<u64, BusFault> {
        if (MSIP_BASE..MTIMECMP_BASE).contains(&offset) {
            // msip: 32-bit registers, 32-bit aligned access only
            if size != 4 || !offset.is_multiple_of(4) {
                return Err(BusFault);
            }
            let hart = ((offset - MSIP_BASE) / 4) as usize;
            return match self.msip.get(hart) {
                Some(&b) => Ok(b as u64),
                None => Err(BusFault),
            };
        }
        let (base, cur) = self.timer_reg(offset).ok_or(BusFault)?;
        match size {
            8 if offset == base => Ok(cur),
            4 if offset == base || offset == base + 4 => Ok(read_half(cur, offset - base)),
            _ => Err(BusFault),
        }
    }

    /// Width-checked MMIO write at `offset`.
    ///
    /// # Errors
    ///
    /// [`BusFault`] on a bad width, misalignment, or unmapped offset.
    pub fn write(&mut self, offset: u64, value: u64, size: usize) -> Result<(), BusFault> {
        if (MSIP_BASE..MTIMECMP_BASE).contains(&offset) {
            if size != 4 || !offset.is_multiple_of(4) {
                return Err(BusFault);
            }
            let hart = ((offset - MSIP_BASE) / 4) as usize;
            return match self.msip.get_mut(hart) {
                Some(b) => {
                    *b = value & 1 != 0;
                    Ok(())
                }
                None => Err(BusFault),
            };
        }
        let (base, cur) = self.timer_reg(offset).ok_or(BusFault)?;
        let new = match size {
            8 if offset == base => value,
            4 if offset == base || offset == base + 4 => merge_half(cur, offset - base, value),
            _ => return Err(BusFault),
        };
        if base == MTIME {
            self.mtime = new;
        } else {
            let hart = ((base - MTIMECMP_BASE) / 8) as usize;
            self.mtimecmp[hart] = new;
        }
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for Clint {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        let harts = xt_snapshot::SnapshotError::Mismatch {
            what: "clint hart count",
        };
        s.fixed(&mut self.msip, harts, S::bool)?;
        s.fixed(&mut self.mtimecmp, harts, S::u64)?;
        s.u64(&mut self.mtime)
    }
}

impl MmioDevice for Clint {
    fn read(&mut self, offset: u64, size: usize) -> Result<u64, BusFault> {
        Clint::read(self, offset, size)
    }

    fn write(&mut self, offset: u64, value: u64, size: usize) -> Result<(), BusFault> {
        Clint::write(self, offset, value, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_interrupt_via_msip() {
        let mut c = Clint::new(4);
        assert!(!c.software_pending(2));
        c.write(MSIP_BASE + 8, 1, 4).unwrap(); // hart 2
        assert!(c.software_pending(2));
        assert!(!c.software_pending(1));
        c.write(MSIP_BASE + 8, 0, 4).unwrap();
        assert!(!c.software_pending(2));
    }

    #[test]
    fn timer_fires_at_compare() {
        let mut c = Clint::new(1);
        c.write(MTIMECMP_BASE, 100, 8).unwrap();
        assert!(!c.timer_pending(0));
        assert_eq!(c.ticks_to_timer(0), Some(100));
        c.tick(99);
        assert!(!c.timer_pending(0));
        c.tick(1);
        assert!(c.timer_pending(0));
        assert_eq!(c.ticks_to_timer(0), None, "already pending");
        // rearm
        c.write(MTIMECMP_BASE, 200, 8).unwrap();
        assert!(!c.timer_pending(0));
    }

    #[test]
    fn mtime_read_write() {
        let mut c = Clint::new(1);
        c.write(MTIME, 12345, 8).unwrap();
        assert_eq!(c.read(MTIME, 8).unwrap(), 12345);
        c.tick(5);
        assert_eq!(c.read(MTIME, 8).unwrap(), 12350);
    }

    #[test]
    fn per_hart_compare_registers() {
        let mut c = Clint::new(2);
        c.write(MTIMECMP_BASE, 10, 8).unwrap();
        c.write(MTIMECMP_BASE + 8, 20, 8).unwrap();
        c.tick(15);
        assert!(c.timer_pending(0));
        assert!(!c.timer_pending(1));
        assert_eq!(c.read(MTIMECMP_BASE + 8, 8).unwrap(), 20);
    }

    /// Regression (ISSUE 7 satellite): a 64-bit store at `msip[i]` must
    /// fault, not alias `msip[i+1]` — an IPI to hart 0 must never also
    /// wake hart 1.
    #[test]
    fn msip_rejects_wide_access() {
        let mut c = Clint::new(4);
        assert_eq!(c.write(MSIP_BASE, 1, 8), Err(BusFault));
        assert!(!c.software_pending(0), "denied store has no effect");
        assert!(!c.software_pending(1), "and no aliasing into msip[1]");
        assert_eq!(c.read(MSIP_BASE, 8), Err(BusFault));
        // misaligned 32-bit access straddling msip[0]/msip[1]
        assert_eq!(c.write(MSIP_BASE + 2, 1, 4), Err(BusFault));
        // out-of-range hart
        assert_eq!(c.write(MSIP_BASE + 4 * 4, 1, 4), Err(BusFault));
    }

    /// `mtimecmp` takes 64-bit accesses or 32-bit halves, nothing else.
    #[test]
    fn timer_registers_width_rules() {
        let mut c = Clint::new(1);
        c.write(MTIMECMP_BASE, 0x1111_2222_3333_4444, 8).unwrap();
        // 32-bit halves read back the split value
        assert_eq!(c.read(MTIMECMP_BASE, 4).unwrap(), 0x3333_4444);
        assert_eq!(c.read(MTIMECMP_BASE + 4, 4).unwrap(), 0x1111_2222);
        // half-writes merge
        c.write(MTIMECMP_BASE + 4, 0xAAAA_BBBB, 4).unwrap();
        assert_eq!(c.read(MTIMECMP_BASE, 8).unwrap(), 0xAAAA_BBBB_3333_4444);
        // denied: misaligned 64-bit, byte access, unmapped hole
        assert_eq!(c.write(MTIMECMP_BASE + 4, 0, 8), Err(BusFault));
        assert_eq!(c.read(MTIME, 1), Err(BusFault));
        assert_eq!(c.read(0x3000, 4), Err(BusFault));
    }
}
