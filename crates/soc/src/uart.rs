//! A minimal TX-only UART (8250-flavored register subset).
//!
//! Byte-wide registers at the [`xt_emu::platform::UART_BASE`] window:
//!
//! * `0x0` THR (write): transmit a byte — appended to [`Uart::tx`];
//!   reading returns 0 (the receive FIFO is always empty).
//! * `0x5` LSR (read): line status — always `0x60` (transmit holding
//!   register empty + transmitter idle), so guest polling loops
//!   terminate immediately.
//!
//! All accesses must be 1 byte wide; writes to any register but THR and
//! accesses outside the 8-byte register file fault (and land in the
//! bus's denied-access diagnostics).

use crate::bus::MmioDevice;
use xt_emu::BusFault;

/// LSR value: THR empty | transmitter idle.
const LSR_IDLE: u64 = 0x60;

/// Ceiling on retained TX bytes (a guest wedged in a print loop must
/// not grow host memory unboundedly). 64 KiB holds any test program's
/// full console output.
pub const MAX_TX: usize = 64 * 1024;

/// The UART device model.
#[derive(Clone, Debug, Default)]
pub struct Uart {
    /// Transmitted bytes, in order, capped at [`MAX_TX`]; overflow
    /// bytes are counted in [`Uart::tx_dropped`] instead. The write
    /// itself still succeeds — a full host-side buffer is not a guest
    /// bus fault.
    pub tx: Vec<u8>,
    /// Bytes transmitted after the buffer filled (dropped, not stored).
    pub tx_dropped: u64,
}

impl Uart {
    /// Creates an idle UART.
    pub fn new() -> Self {
        Uart::default()
    }

    /// The transmitted bytes as a lossy string (test convenience).
    pub fn tx_string(&self) -> String {
        String::from_utf8_lossy(&self.tx).into_owned()
    }
}

impl xt_snapshot::SnapshotState for Uart {
    fn transfer<S: xt_snapshot::Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        s.bytes(&mut self.tx)?;
        s.check(self.tx.len() <= MAX_TX, "uart tx length")?;
        s.u64(&mut self.tx_dropped)
    }
}

impl MmioDevice for Uart {
    fn read(&mut self, offset: u64, size: usize) -> Result<u64, BusFault> {
        if size != 1 || offset >= 8 {
            return Err(BusFault);
        }
        Ok(match offset {
            5 => LSR_IDLE,
            _ => 0,
        })
    }

    fn write(&mut self, offset: u64, value: u64, size: usize) -> Result<(), BusFault> {
        if size != 1 || offset != 0 {
            return Err(BusFault);
        }
        if self.tx.len() < MAX_TX {
            self.tx.push(value as u8);
        } else {
            self.tx_dropped += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_and_status() {
        let mut u = Uart::new();
        for b in b"hi" {
            u.write(0, *b as u64, 1).unwrap();
        }
        assert_eq!(u.tx_string(), "hi");
        assert_eq!(u.read(5, 1).unwrap(), LSR_IDLE);
        assert_eq!(u.read(0, 1).unwrap(), 0, "rx empty");
    }

    #[test]
    fn tx_buffer_caps_and_counts_drops() {
        let mut u = Uart::new();
        for i in 0..(MAX_TX + 100) {
            u.write(0, (i & 0x7f) as u64, 1).unwrap();
        }
        assert_eq!(u.tx.len(), MAX_TX, "buffer capped");
        assert_eq!(u.tx_dropped, 100, "overflow bytes counted");
        // snapshot round-trips the cap state
        use xt_snapshot::SnapshotState;
        let mut e = xt_snapshot::Enc::new();
        u.save(&mut e);
        let bytes = e.into_bytes();
        let mut r = Uart::new();
        let mut d = xt_snapshot::Dec::new(&bytes);
        r.restore(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(r.tx.len(), MAX_TX);
        assert_eq!(r.tx_dropped, 100);
    }

    /// A frame is outside input: a log longer than any guest could grow
    /// is refused, not restored into host memory the cap exists to bound.
    #[test]
    fn restore_refuses_a_tx_log_over_the_cap() {
        use xt_snapshot::SnapshotState;
        let mut forged = Uart::new();
        forged.tx = vec![b'x'; MAX_TX + 1];
        let mut e = xt_snapshot::Enc::new();
        forged.save(&mut e);
        let got = Uart::new().restore(&mut xt_snapshot::Dec::new(e.bytes()));
        let want = xt_snapshot::SnapshotError::Corrupt {
            what: "uart tx length",
        };
        assert_eq!(got, Err(want));
    }

    #[test]
    fn width_and_offset_rules() {
        let mut u = Uart::new();
        assert_eq!(u.write(0, 0x41, 4), Err(BusFault), "word-wide THR write");
        assert_eq!(u.write(5, 1, 1), Err(BusFault), "LSR is read-only");
        assert_eq!(u.read(8, 1), Err(BusFault), "past the register file");
        assert!(u.tx.is_empty());
    }
}
