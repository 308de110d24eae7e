//! Architectural CPU state: register files, CSRs, privilege mode.

use std::collections::HashMap;
use xt_isa::csr;
use xt_isa::vector::VType;
use xt_snapshot::Stream;

/// Privilege mode (paper Fig. 1: U/S/M).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PrivMode {
    /// User mode.
    User = 0,
    /// Supervisor mode.
    Supervisor = 1,
    /// Machine mode.
    Machine = 3,
}

/// Default vector register length in bits (two 64-bit slices, §VII).
pub const DEFAULT_VLEN: u32 = 128;

/// Complete architectural state of one hart.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// Program counter.
    pub pc: u64,
    /// Integer registers (`x[0]` reads as 0; writes are discarded by the
    /// accessors).
    pub x: [u64; 32],
    /// Floating-point registers (raw bits; doubles stored directly,
    /// singles NaN-boxed in the low 32 bits).
    pub f: [u64; 32],
    /// Vector registers, `vlen_bits/8` bytes each.
    pub v: Vec<Vec<u8>>,
    /// Vector length register.
    pub vl: u64,
    /// Decoded vector type register.
    pub vtype: VType,
    /// Vector register length in bits (configuration, default 128).
    pub vlen_bits: u32,
    /// Current privilege mode.
    pub mode: PrivMode,
    /// CSR file (sparse).
    pub csrs: HashMap<u16, u64>,
    /// `satp`, kept out of the map: [`Cpu::translation_on`] reads it on
    /// every fetch and every data access below machine mode. `None`
    /// until first written, as a map entry would be.
    satp: Option<u64>,
    /// Retired instruction count.
    pub instret: u64,
    /// Reservation address for LR/SC, if any.
    pub reservation: Option<u64>,
    /// Hart id.
    pub hart_id: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Cpu {
    /// Creates a hart in machine mode with the default 128-bit VLEN.
    pub fn new(hart_id: u64) -> Self {
        Cpu {
            pc: 0,
            x: [0; 32],
            f: [0; 32],
            v: vec![vec![0u8; (DEFAULT_VLEN / 8) as usize]; 32],
            vl: 0,
            vtype: VType::default(),
            vlen_bits: DEFAULT_VLEN,
            mode: PrivMode::Machine,
            csrs: HashMap::new(),
            satp: None,
            instret: 0,
            reservation: None,
            hart_id,
        }
    }

    /// Reconfigures VLEN (64..=1024 per §VII). Clears vector state.
    ///
    /// # Panics
    ///
    /// Panics if `vlen_bits` is not a power of two in `64..=1024`.
    pub fn set_vlen(&mut self, vlen_bits: u32) {
        assert!(
            (64..=1024).contains(&vlen_bits) && vlen_bits.is_power_of_two(),
            "VLEN must be a power of two in 64..=1024"
        );
        self.vlen_bits = vlen_bits;
        self.v = vec![vec![0u8; (vlen_bits / 8) as usize]; 32];
        self.vl = 0;
    }

    /// Reads integer register `r` (x0 reads 0).
    #[inline]
    pub fn rx(&self, r: u8) -> u64 {
        if r == 0 {
            0
        } else {
            self.x[r as usize]
        }
    }

    /// Writes integer register `r` (writes to x0 discarded).
    #[inline]
    pub fn wx(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.x[r as usize] = v;
        }
    }

    /// Reads FP register bits.
    #[inline]
    pub fn rf(&self, r: u8) -> u64 {
        self.f[r as usize]
    }

    /// Writes FP register bits.
    #[inline]
    pub fn wf(&mut self, r: u8, v: u64) {
        self.f[r as usize] = v;
    }

    /// Reads an FP register as f64.
    #[inline]
    pub fn rf_d(&self, r: u8) -> f64 {
        f64::from_bits(self.f[r as usize])
    }

    /// Writes an FP register as f64.
    #[inline]
    pub fn wf_d(&mut self, r: u8, v: f64) {
        self.f[r as usize] = v.to_bits();
    }

    /// Reads an FP register as f32 (NaN-boxed low bits).
    #[inline]
    pub fn rf_s(&self, r: u8) -> f32 {
        f32::from_bits(self.f[r as usize] as u32)
    }

    /// Writes an FP register as f32 with NaN boxing.
    #[inline]
    pub fn wf_s(&mut self, r: u8, v: f32) {
        self.f[r as usize] = 0xffff_ffff_0000_0000 | v.to_bits() as u64;
    }

    /// Reads a CSR, synthesizing the live counters and vector CSRs.
    /// `fcsr` is composed from `frm`/`fflags` so the three views stay
    /// coherent however the guest mixes them.
    pub fn read_csr(&self, addr: u16) -> u64 {
        match addr {
            csr::INSTRET => self.instret,
            csr::CYCLE | csr::TIME => self.instret, // functional model: 1 IPC
            csr::VL => self.vl,
            csr::VTYPE => self.vtype.to_bits(),
            csr::MHARTID => self.hart_id,
            csr::SATP => self.satp(),
            csr::FCSR => (self.read_csr(csr::FRM) << 5) | self.read_csr(csr::FFLAGS),
            _ => self.csrs.get(&addr).copied().unwrap_or(0),
        }
    }

    /// Writes a CSR (read-only counters are ignored).
    pub fn write_csr(&mut self, addr: u16, val: u64) {
        match addr {
            csr::INSTRET | csr::CYCLE | csr::TIME | csr::VL | csr::VTYPE | csr::MHARTID => {}
            csr::FFLAGS => {
                self.csrs.insert(csr::FFLAGS, val & 0x1f);
            }
            csr::FRM => {
                self.csrs.insert(csr::FRM, val & 0x7);
            }
            csr::FCSR => {
                self.csrs.insert(csr::FFLAGS, val & 0x1f);
                self.csrs.insert(csr::FRM, (val >> 5) & 0x7);
            }
            csr::SATP => self.satp = Some(val),
            _ => {
                self.csrs.insert(addr, val);
            }
        }
    }

    /// Accumulates floating-point exception flags into `fflags`.
    #[inline]
    pub fn set_fflags(&mut self, flags: u64) {
        if flags != 0 {
            let cur = self.read_csr(csr::FFLAGS);
            self.csrs.insert(csr::FFLAGS, (cur | flags) & 0x1f);
        }
    }

    /// Current SV39 configuration from `satp` (mode, asid, root PPN).
    #[inline]
    pub fn satp(&self) -> u64 {
        self.satp.unwrap_or(0)
    }

    /// True when address translation is active, for fetches and data
    /// accesses alike (no MPRV is modelled): Sv39 below machine mode.
    /// The mode is tested first: machine mode answers without reading
    /// `satp`.
    #[inline]
    pub fn translation_on(&self) -> bool {
        self.mode != PrivMode::Machine && csr::satp::mode(self.satp()) == csr::satp::MODE_SV39
    }
}

impl xt_snapshot::SnapshotState for Cpu {
    fn transfer<S: Stream>(&mut self, s: &mut S) -> xt_snapshot::Result<()> {
        use xt_snapshot::SnapshotError::Corrupt;
        s.u64(&mut self.pc)?;
        self.x
            .iter_mut()
            .chain(&mut self.f)
            .try_for_each(|r| s.u64(r))?;
        if S::DECODING {
            self.x[0] = 0;
        }
        let mut vlen = self.vlen_bits;
        s.u32(&mut vlen)?;
        s.check(
            (64..=1024).contains(&vlen) && vlen.is_power_of_two(),
            "vlen_bits",
        )?;
        if vlen != self.vlen_bits {
            self.set_vlen(vlen);
        }
        for vr in &mut self.v {
            s.fixed_bytes(
                vr,
                Corrupt {
                    what: "vector register length",
                },
            )?;
        }
        s.u64(&mut self.vl)?;
        let mut vtype = self.vtype.to_bits();
        s.u64(&mut vtype)?;
        if S::DECODING {
            self.vtype = VType::from_bits(vtype);
        }
        let mut mode = self.mode as u8;
        s.u8(&mut mode)?;
        self.mode = match mode {
            0 => PrivMode::User,
            1 => PrivMode::Supervisor,
            3 => PrivMode::Machine,
            _ => return Err(Corrupt { what: "priv mode" }),
        };
        // `satp` lives outside the map, and is written where the sorted
        // list had it while it lived in the map
        let mut csrs = self.csrs.clone();
        csrs.extend(self.satp.map(|v| (csr::SATP, v)));
        s.map(&mut csrs, 10, S::u64)?;
        if S::DECODING {
            self.satp = csrs.remove(&csr::SATP);
            self.csrs = csrs;
        }
        s.u64(&mut self.instret)?;
        s.opt(&mut self.reservation, S::u64)?;
        s.u64(&mut self.hart_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_hardwired() {
        let mut c = Cpu::new(0);
        c.wx(0, 123);
        assert_eq!(c.rx(0), 0);
        c.wx(5, 7);
        assert_eq!(c.rx(5), 7);
    }

    #[test]
    fn f32_nan_boxing() {
        let mut c = Cpu::new(0);
        c.wf_s(1, 1.5);
        assert_eq!(c.rf_s(1), 1.5);
        assert_eq!(c.rf(1) >> 32, 0xffff_ffff);
    }

    #[test]
    fn csr_counters_read_only() {
        let mut c = Cpu::new(3);
        c.write_csr(xt_isa::csr::MHARTID, 99);
        assert_eq!(c.read_csr(xt_isa::csr::MHARTID), 3);
        c.instret = 17;
        assert_eq!(c.read_csr(xt_isa::csr::INSTRET), 17);
    }

    #[test]
    fn vlen_reconfig() {
        let mut c = Cpu::new(0);
        c.set_vlen(256);
        assert_eq!(c.v[0].len(), 32);
    }

    #[test]
    #[should_panic]
    fn bad_vlen_panics() {
        Cpu::new(0).set_vlen(100);
    }

    /// `satp` lives in a field; a frame still lists it between its
    /// neighbours in CSR-address order, and only once written.
    #[test]
    fn satp_field_is_saved_where_the_map_had_it() {
        use xt_isa::csr::{MSTATUS, SATP, SSCRATCH};
        use xt_snapshot::SnapshotState;
        let frame = |c: &Cpu| {
            let mut e = xt_snapshot::Enc::new();
            c.clone().save(&mut e);
            e.into_bytes()
        };
        let mut c = Cpu::new(0);
        c.write_csr(MSTATUS, 0x8);
        c.write_csr(SSCRATCH, 0x55);
        let unwritten = frame(&c);
        assert_eq!(c.read_csr(SATP), 0);
        c.write_csr(SATP, 0);
        let zero = frame(&c);
        assert_eq!(
            zero.len(),
            unwritten.len() + 10,
            "a written zero is an entry"
        );
        c.write_csr(SATP, 0x8000_0000_0000_1234);
        assert_eq!(c.read_csr(SATP), c.satp());
        assert!(!c.csrs.contains_key(&SATP));
        // the same frame from a map that holds satp itself
        let bytes = frame(&c);
        let entry = |k: u16, v: u64| [&k.to_le_bytes()[..], &v.to_le_bytes()[..]].concat();
        let sorted = [
            entry(SSCRATCH, 0x55),
            entry(SATP, 0x8000_0000_0000_1234),
            entry(MSTATUS, 0x8),
        ]
        .concat();
        const { assert!(SSCRATCH < SATP && SATP < MSTATUS) };
        assert!(
            bytes.windows(sorted.len()).any(|w| w == sorted),
            "satp sits between sscratch and mstatus"
        );
        let mut r = Cpu::new(0);
        r.write_csr(SATP, 7); // overwritten, or cleared by a frame without it
        r.restore(&mut xt_snapshot::Dec::new(&bytes))
            .expect("restore");
        assert_eq!(r.satp(), c.satp());
        assert_eq!(frame(&r), bytes);
        r.restore(&mut xt_snapshot::Dec::new(&unwritten))
            .expect("restore");
        assert_eq!(r.satp, None);
        assert_eq!(frame(&r), unwritten);
    }

    #[test]
    fn translation_requires_satp_and_priv() {
        let mut c = Cpu::new(0);
        assert!(!c.translation_on());
        c.write_csr(
            xt_isa::csr::SATP,
            xt_isa::csr::satp::pack(xt_isa::csr::satp::MODE_SV39, 1, 0x1000),
        );
        assert!(!c.translation_on(), "still machine mode");
        c.mode = PrivMode::Supervisor;
        assert!(c.translation_on());
    }
}
