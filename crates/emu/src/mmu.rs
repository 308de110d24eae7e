//! SV39 page-table walking (functional).
//!
//! Provides the 3-level SV39 walk required by the RISC-V Linux
//! specification, with leaf entries allowed at every level — the 4 KiB /
//! 2 MiB / 1 GiB huge-page support the paper's §V-D/§V-E build on.
//!
//! Translation and the decoded-block fast path (docs/FASTPATH.md):
//! block caching engages only while fetch is untranslated (machine mode
//! or bare `satp`, no PMP), so a guest running under SV39 executes through
//! the per-step reference path. Page-table edits therefore can never
//! desync cached code — the cache only ever holds blocks whose `pc`
//! *is* their physical address, and stores invalidate by physical span.

use crate::gmem::GuestMem;

/// Access type for permission checks and fault causes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store / AMO.
    Store,
}

/// Page-table-entry permission bits.
pub mod pte {
    /// Valid.
    pub const V: u64 = 1 << 0;
    /// Readable.
    pub const R: u64 = 1 << 1;
    /// Writable.
    pub const W: u64 = 1 << 2;
    /// Executable.
    pub const X: u64 = 1 << 3;
    /// User-accessible.
    pub const U: u64 = 1 << 4;
    /// Global mapping.
    pub const G: u64 = 1 << 5;
    /// Accessed.
    pub const A: u64 = 1 << 6;
    /// Dirty.
    pub const D: u64 = 1 << 7;
}

/// Successful translation result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    /// Physical address.
    pub pa: u64,
    /// Page level of the leaf: 0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB.
    pub level: u8,
    /// The leaf PTE bits (for permission-sensitive callers).
    pub pte: u64,
}

impl Translation {
    /// Page size in bytes for this translation's level.
    pub fn page_size(&self) -> u64 {
        match self.level {
            0 => 4 << 10,
            1 => 2 << 20,
            _ => 1 << 30,
        }
    }
}

/// A page fault: the faulting VA and the access type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageFault {
    /// Faulting virtual address.
    pub va: u64,
    /// Access type (selects the scause value).
    pub access: Access,
}

impl PageFault {
    /// RISC-V exception cause code for this fault.
    pub fn cause(&self) -> u64 {
        match self.access {
            Access::Fetch => 12,
            Access::Load => 13,
            Access::Store => 15,
        }
    }
}

/// Walks the SV39 tables rooted at physical page `root_ppn` for `va`.
///
/// The number of memory accesses performed equals `walk depth`; callers
/// that model timing can charge one memory access per level.
///
/// # Errors
///
/// Returns a [`PageFault`] on invalid entries, malformed non-leaf
/// entries, misaligned superpages or permission mismatch.
pub fn walk(mem: &mut GuestMem, root_ppn: u64, va: u64, access: Access) -> Result<Translation, PageFault> {
    let fault = || PageFault { va, access };
    // SV39 requires bits 63:39 to equal bit 38.
    let sext = ((va as i64) << 25) >> 25;
    if sext as u64 != va {
        return Err(fault());
    }
    let vpn = [(va >> 12) & 0x1ff, (va >> 21) & 0x1ff, (va >> 30) & 0x1ff];
    let mut table = root_ppn << 12;
    for level in (0..3).rev() {
        let pte_addr = table + vpn[level] * 8;
        let e = mem.read_u64(pte_addr);
        if e & pte::V == 0 {
            return Err(fault());
        }
        let is_leaf = e & (pte::R | pte::W | pte::X) != 0;
        if !is_leaf {
            if level == 0 {
                return Err(fault());
            }
            table = ((e >> 10) & 0xfff_ffff_ffff) << 12;
            continue;
        }
        // permission check
        let ok = match access {
            Access::Fetch => e & pte::X != 0,
            Access::Load => e & pte::R != 0,
            Access::Store => e & pte::W != 0,
        };
        if !ok {
            return Err(fault());
        }
        let ppn = (e >> 10) & 0xfff_ffff_ffff;
        // superpage alignment: low PPN bits must be zero
        let align_bits = 9 * level as u32;
        if align_bits > 0 && ppn & ((1 << align_bits) - 1) != 0 {
            return Err(fault());
        }
        let page_off_bits = 12 + align_bits;
        let mask = (1u64 << page_off_bits) - 1;
        let pa = ((ppn << 12) & !mask) | (va & mask);
        return Ok(Translation {
            pa,
            level: level as u8,
            pte: e,
        });
    }
    Err(fault())
}

/// Helper to build page tables in guest memory for tests and workloads.
#[derive(Debug)]
pub struct PageTableBuilder {
    /// Physical address at which the next table will be allocated.
    next_table: u64,
    /// Root table physical address.
    pub root: u64,
}

impl PageTableBuilder {
    /// Creates a builder allocating tables upward from `base` (4 KiB
    /// aligned).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4 KiB aligned.
    pub fn new(mem: &mut GuestMem, base: u64) -> Self {
        assert_eq!(base & 0xfff, 0, "table base must be page aligned");
        // Touch the root page so it is resident.
        mem.write_u64(base, 0);
        PageTableBuilder {
            next_table: base + 4096,
            root: base,
        }
    }

    /// Root PPN suitable for `satp`.
    pub fn root_ppn(&self) -> u64 {
        self.root >> 12
    }

    /// Maps `va -> pa` at the given level (0 = 4 KiB, 1 = 2 MiB,
    /// 2 = 1 GiB) with permissions `perms` (an OR of [`pte`] bits; `V|A|D`
    /// are added automatically).
    ///
    /// # Panics
    ///
    /// Panics if `va`/`pa` are misaligned for the level.
    pub fn map(&mut self, mem: &mut GuestMem, va: u64, pa: u64, level: u8, perms: u64) {
        let page_bits = 12 + 9 * level as u32;
        assert_eq!(va & ((1 << page_bits) - 1), 0, "va misaligned for level");
        assert_eq!(pa & ((1 << page_bits) - 1), 0, "pa misaligned for level");
        let vpn = [(va >> 12) & 0x1ff, (va >> 21) & 0x1ff, (va >> 30) & 0x1ff];
        let mut table = self.root;
        for l in (level..3).rev() {
            let pte_addr = table + vpn[l as usize] * 8;
            if l == level {
                let e = ((pa >> 12) << 10) | perms | pte::V | pte::A | pte::D;
                mem.write_u64(pte_addr, e);
                return;
            }
            let e = mem.read_u64(pte_addr);
            if e & pte::V != 0 {
                table = ((e >> 10) & 0xfff_ffff_ffff) << 12;
            } else {
                let new_table = self.next_table;
                self.next_table += 4096;
                mem.write_u64(pte_addr, ((new_table >> 12) << 10) | pte::V);
                table = new_table;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_4k_map() {
        let mut mem = GuestMem::new();
        let mut pt = PageTableBuilder::new(&mut mem, 0x10_0000);
        pt.map(&mut mem, 0x8000_0000, 0x8000_0000, 0, pte::R | pte::W | pte::X);
        let t = walk(&mut mem, pt.root_ppn(), 0x8000_0123, Access::Load).unwrap();
        assert_eq!(t.pa, 0x8000_0123);
        assert_eq!(t.level, 0);
    }

    #[test]
    fn huge_2m_and_1g_maps() {
        let mut mem = GuestMem::new();
        let mut pt = PageTableBuilder::new(&mut mem, 0x10_0000);
        pt.map(&mut mem, 0x4000_0000, 0x8000_0000, 2, pte::R | pte::W);
        pt.map(&mut mem, 0x2020_0000, 0x0120_0000, 1, pte::R);
        let g = walk(&mut mem, pt.root_ppn(), 0x4123_4567, Access::Load).unwrap();
        assert_eq!(g.pa, 0x8123_4567);
        assert_eq!(g.page_size(), 1 << 30);
        let m = walk(&mut mem, pt.root_ppn(), 0x2021_0042, Access::Load).unwrap();
        assert_eq!(m.pa, 0x0121_0042);
        assert_eq!(m.page_size(), 2 << 20);
    }

    #[test]
    fn permission_faults() {
        let mut mem = GuestMem::new();
        let mut pt = PageTableBuilder::new(&mut mem, 0x10_0000);
        pt.map(&mut mem, 0x1000, 0x2000, 0, pte::R);
        assert!(walk(&mut mem, pt.root_ppn(), 0x1000, Access::Store).is_err());
        assert!(walk(&mut mem, pt.root_ppn(), 0x1000, Access::Fetch).is_err());
        assert!(walk(&mut mem, pt.root_ppn(), 0x1000, Access::Load).is_ok());
    }

    #[test]
    fn unmapped_faults_with_cause() {
        let mut mem = GuestMem::new();
        let f = walk(&mut mem, 0x100, 0x5000, Access::Store).unwrap_err();
        assert_eq!(f.cause(), 15);
    }

    #[test]
    fn non_canonical_va_faults() {
        let mut mem = GuestMem::new();
        assert!(walk(&mut mem, 0x100, 0x0100_0000_0000_0000, Access::Load).is_err());
    }
}
